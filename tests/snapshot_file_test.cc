// Binary snapshot format suite: randomized round-trip property (save ->
// load -> bit-identical query results against the pipeline-built
// artifacts) plus the corruption battery — truncation, flipped magic,
// flipped payload bytes, version skew — all of which must fail
// LoadSnapshotFile with a clean Status, never a crash.

#include "serving/snapshot_file.h"

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/coldstart.h"
#include "common/rng.h"
#include "ingest/ingest.h"
#include "ingest/verify.h"
#include "cluster/partition.h"
#include "common/file_io.h"
#include "esharp/pipeline.h"
#include "microblog/generator.h"
#include "querylog/generator.h"
#include "querylog/universe.h"
#include "serving/engine.h"
#include "serving/snapshot.h"
#include "gtest/gtest.h"

namespace esharp {
namespace {

/// One randomized world, small enough that a test builds several: universe
/// -> query log -> offline pipeline (store + evidence) -> corpus.
struct World {
  querylog::TopicUniverse universe;
  core::OfflineArtifacts artifacts;
  microblog::TweetCorpus corpus;
};

World MakeWorld(uint64_t seed) {
  querylog::UniverseOptions uo;
  uo.num_categories = 2;
  uo.domains_per_category = 4;
  uo.seed = seed;
  querylog::TopicUniverse universe = *querylog::TopicUniverse::Generate(uo);

  querylog::GeneratorOptions go;
  go.seed = seed + 1;
  go.head_impressions = 6000;
  querylog::GeneratedLog generated = *GenerateQueryLog(universe, go);

  microblog::CorpusOptions co;
  co.seed = seed + 2;
  co.casual_users = 90;
  co.spam_users = 8;
  microblog::TweetCorpus corpus = *GenerateCorpus(universe, co);

  core::OfflineOptions offline;
  offline.extraction.min_similarity = 0.15;
  offline.corpus = &corpus;
  core::OfflineArtifacts artifacts =
      *RunOfflinePipeline(generated.log, offline);

  return World{std::move(universe), std::move(artifacts), std::move(corpus)};
}

std::vector<std::string> QueryMix(const World& world) {
  std::vector<std::string> queries;
  for (const querylog::TopicDomain& dom : world.universe.domains()) {
    if (!dom.terms.empty()) queries.push_back(dom.terms[0]);
    if (dom.terms.size() > 2) queries.push_back(dom.terms[2]);
  }
  queries.push_back("no such topic anywhere");
  return queries;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// SerializeTsv equality modulo line order: the `w` (inter-weight) lines
/// follow unordered-map iteration order, which a rebuilt map is free to
/// permute; the content must still match exactly.
std::vector<std::string> SortedTsvLines(const std::string& tsv) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < tsv.size()) {
    size_t end = tsv.find('\n', start);
    if (end == std::string::npos) end = tsv.size();
    lines.push_back(tsv.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

serving::ServingOptions EngineOptions() {
  serving::ServingOptions o;
  o.num_threads = 2;
  o.enable_cache = false;
  o.enable_single_flight = false;
  return o;
}

void ExpectSameEvidence(const std::vector<expert::CandidateEvidence>& a,
                        const std::vector<expert::CandidateEvidence>& b,
                        const std::string& query) {
  ASSERT_EQ(a.size(), b.size()) << "query '" << query << "'";
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].user, b[i].user) << "query '" << query << "' slot " << i;
    EXPECT_EQ(a[i].is_author, b[i].is_author);
    EXPECT_EQ(a[i].is_mentioned, b[i].is_mentioned);
    EXPECT_EQ(a[i].tweets_on_topic, b[i].tweets_on_topic);
    EXPECT_EQ(a[i].mentions_on_topic, b[i].mentions_on_topic);
    EXPECT_EQ(a[i].retweets_on_topic, b[i].retweets_on_topic);
    EXPECT_EQ(a[i].conversational_on_topic, b[i].conversational_on_topic);
    EXPECT_EQ(a[i].hashtag_on_topic, b[i].hashtag_on_topic);
  }
}

/// The round-trip property: a cold-started engine answers every query of
/// the mix with evidence bit-identical to an engine over the original
/// pipeline-built artifacts.
TEST(SnapshotRoundTripTest, ColdStartAnswersBitIdentically) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    World world = MakeWorld(seed);
    serving::SnapshotManager original(&world.corpus);
    original.Publish(world.artifacts.store, {},
                     world.artifacts.evidence_index);
    const std::string path = TempPath("roundtrip.esnap");
    ASSERT_TRUE(original.SaveSnapshot(path).ok());

    Result<serving::SnapshotManager::ColdStartArtifacts> cold =
        serving::SnapshotManager::LoadSnapshot(path);
    ASSERT_TRUE(cold.ok()) << cold.status().message();
    ASSERT_TRUE(cold->info.has_evidence);
    EXPECT_EQ(cold->info.format_version, serving::kSnapshotFormatVersion);
    ASSERT_NE(cold->manager->Acquire(), nullptr);
    EXPECT_EQ(cold->manager->version(), 1u);

    // Corpus reconstruction invariants.
    ASSERT_EQ(cold->corpus->num_users(), world.corpus.num_users());
    ASSERT_EQ(cold->corpus->num_tweets(), world.corpus.num_tweets());
    ASSERT_EQ(cold->corpus->num_tokens(), world.corpus.num_tokens());
    for (microblog::UserId u = 0; u < world.corpus.num_users(); ++u) {
      ASSERT_EQ(cold->corpus->TweetsByUser(u), world.corpus.TweetsByUser(u));
      ASSERT_EQ(cold->corpus->MentionsOfUser(u),
                world.corpus.MentionsOfUser(u));
      ASSERT_EQ(cold->corpus->RetweetsOfUser(u),
                world.corpus.RetweetsOfUser(u));
    }
    // The store round-trips to the same serialized artifact (modulo the
    // unordered-map line order SerializeTsv inherits).
    EXPECT_EQ(SortedTsvLines(cold->manager->Acquire()->store().SerializeTsv()),
              SortedTsvLines(world.artifacts.store.SerializeTsv()));

    serving::ServingEngine original_engine(&original, EngineOptions());
    serving::ServingEngine cold_engine(cold->manager.get(), EngineOptions());
    for (const std::string& query : QueryMix(world)) {
      serving::QueryRequest a, b;
      a.query = query;
      b.query = query;
      Result<serving::EvidenceResponse> ra =
          original_engine.QueryEvidence(std::move(a));
      Result<serving::EvidenceResponse> rb =
          cold_engine.QueryEvidence(std::move(b));
      ASSERT_EQ(ra.ok(), rb.ok()) << "query '" << query << "'";
      if (!ra.ok()) continue;
      EXPECT_EQ(ra->terms, rb->terms);
      ExpectSameEvidence(ra->evidence, rb->evidence, query);
    }
  }
}

TEST(SnapshotRoundTripTest, WithoutEvidenceServesLiveCollection) {
  World world = MakeWorld(404);
  const std::string path = TempPath("no_evidence.esnap");
  ASSERT_TRUE(serving::SaveSnapshotFile(path, world.corpus,
                                        world.artifacts.store, nullptr)
                  .ok());
  Result<serving::SnapshotManager::ColdStartArtifacts> cold =
      serving::SnapshotManager::LoadSnapshot(path);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  EXPECT_FALSE(cold->info.has_evidence);
  // The cold-start publish must NOT have rebuilt the index.
  EXPECT_EQ(cold->manager->Acquire()->evidence(), nullptr);

  // Live collection still answers identically to a reference engine.
  serving::SnapshotManager reference(&world.corpus);
  reference.set_build_evidence_on_publish(false);
  reference.Publish(world.artifacts.store);
  serving::ServingEngine reference_engine(&reference, EngineOptions());
  serving::ServingEngine cold_engine(cold->manager.get(), EngineOptions());
  for (const std::string& query : QueryMix(world)) {
    serving::QueryRequest a, b;
    a.query = query;
    b.query = query;
    Result<serving::EvidenceResponse> ra =
        reference_engine.QueryEvidence(std::move(a));
    Result<serving::EvidenceResponse> rb =
        cold_engine.QueryEvidence(std::move(b));
    ASSERT_EQ(ra.ok(), rb.ok()) << "query '" << query << "'";
    if (ra.ok()) ExpectSameEvidence(ra->evidence, rb->evidence, query);
  }
}

TEST(SnapshotRoundTripTest, SaveBeforePublishFails) {
  World world = MakeWorld(505);
  serving::SnapshotManager manager(&world.corpus);
  Status status = manager.SaveSnapshot(TempPath("never.esnap"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotRoundTripTest, EmptyArtifactsRoundTrip) {
  // No users, tweets or communities: every array section is zero-length,
  // so the loader copies zero elements into empty vectors.
  microblog::TweetCorpus corpus;
  community::CommunityStore store;
  const std::string path = TempPath("empty.esnap");
  ASSERT_TRUE(serving::SaveSnapshotFile(path, corpus, store, nullptr).ok());
  Result<serving::SnapshotArtifacts> loaded = serving::LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->corpus->num_users(), 0u);
  EXPECT_EQ(loaded->corpus->num_tweets(), 0u);
  EXPECT_EQ(loaded->store->num_communities(), 0u);
  EXPECT_EQ(loaded->evidence, nullptr);
}

// ---- corruption battery ---------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    World world = MakeWorld(606);
    path_ = TempPath("corruption.esnap");
    ASSERT_TRUE(serving::SaveSnapshotFile(
                    path_, world.corpus, world.artifacts.store,
                    world.artifacts.evidence_index.get())
                    .ok());
    Result<std::string> bytes = ReadFileToString(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = bytes.MoveValueUnsafe();
    ASSERT_GT(bytes_.size(), 64u);
  }

  /// Writes `mutated` to a scratch path and expects LoadSnapshotFile to
  /// fail with a Status (and in particular not to crash).
  void ExpectLoadFails(const std::string& mutated, const char* what) {
    const std::string path = TempPath("corrupt_case.esnap");
    ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
    Result<serving::SnapshotArtifacts> loaded =
        serving::LoadSnapshotFile(path);
    EXPECT_FALSE(loaded.ok()) << what;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotCorruptionTest, IntactFileLoads) {
  Result<serving::SnapshotArtifacts> loaded = serving::LoadSnapshotFile(path_);
  EXPECT_TRUE(loaded.ok()) << loaded.status().message();
}

TEST_F(SnapshotCorruptionTest, MissingFileFailsWithPathAndCause) {
  Result<serving::SnapshotArtifacts> loaded =
      serving::LoadSnapshotFile(TempPath("does_not_exist.esnap"));
  ASSERT_FALSE(loaded.ok());
  // The errno-detailed file_io Status must surface the cause.
  EXPECT_NE(loaded.status().message().find("does_not_exist"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("errno"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, EmptyAndTinyFilesFail) {
  ExpectLoadFails("", "empty file");
  ExpectLoadFails(bytes_.substr(0, 7), "7-byte file");
  ExpectLoadFails(bytes_.substr(0, 23), "header cut mid-checksum");
}

TEST_F(SnapshotCorruptionTest, TruncationsFail) {
  ExpectLoadFails(bytes_.substr(0, bytes_.size() / 2), "half the file");
  ExpectLoadFails(bytes_.substr(0, bytes_.size() - 1), "one byte short");
  ExpectLoadFails(bytes_.substr(0, 40), "table cut mid-entry");
}

TEST_F(SnapshotCorruptionTest, FlippedMagicFails) {
  std::string mutated = bytes_;
  mutated[0] ^= 0x01;
  ExpectLoadFails(mutated, "flipped magic byte");
}

TEST_F(SnapshotCorruptionTest, VersionSkewFails) {
  std::string mutated = bytes_;
  mutated[8] = static_cast<char>(serving::kSnapshotFormatVersion + 1);
  ExpectLoadFails(mutated, "future format version");
  const std::string path = TempPath("corrupt_case.esnap");
  ASSERT_TRUE(WriteStringToFile(path, mutated).ok());
  Result<serving::SnapshotArtifacts> loaded = serving::LoadSnapshotFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
      << "version skew must be distinguishable from corruption";
}

TEST_F(SnapshotCorruptionTest, FlippedTableByteFails) {
  std::string mutated = bytes_;
  mutated[24 + 9] ^= 0x10;  // inside the first section entry's offset
  ExpectLoadFails(mutated, "flipped section-table byte");
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadBytesFail) {
  // A flip anywhere in any section must trip that section's checksum.
  for (size_t pos = bytes_.size() / 4; pos < bytes_.size();
       pos += bytes_.size() / 7) {
    std::string mutated = bytes_;
    mutated[pos] ^= 0x20;
    ExpectLoadFails(mutated, "flipped payload byte");
  }
}

TEST_F(SnapshotCorruptionTest, ImplausibleSectionCountFails) {
  std::string mutated = bytes_;
  mutated[12] = static_cast<char>(0xFF);  // section_count low byte
  mutated[13] = static_cast<char>(0xFF);
  ExpectLoadFails(mutated, "implausible section count");
}

// ---- per-shard cold start -------------------------------------------------

TEST(ShardColdStartTest, SaveLoadRoundTripsEveryShard) {
  World world = MakeWorld(707);
  const uint32_t kShards = 3;
  cluster::PartitionedCorpus partition =
      cluster::PartitionCorpus(world.corpus, kShards);
  const std::string prefix = TempPath("cluster_snap");
  ASSERT_TRUE(cluster::SaveShardSnapshots(partition, world.artifacts.store,
                                          {}, prefix)
                  .ok());

  Result<std::vector<cluster::ColdShard>> cold =
      cluster::LoadShardSnapshots(prefix, kShards);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  ASSERT_EQ(cold->size(), kShards);

  // The partition invariants survive the round trip: users replicate,
  // per-user totals sum to the union corpus exactly.
  for (microblog::UserId u = 0; u < world.corpus.num_users(); ++u) {
    uint64_t tweets = 0, mentions = 0, retweets = 0;
    for (const cluster::ColdShard& shard : *cold) {
      ASSERT_EQ(shard.corpus->num_users(), world.corpus.num_users());
      tweets += shard.corpus->TweetsByUser(u);
      mentions += shard.corpus->MentionsOfUser(u);
      retweets += shard.corpus->RetweetsOfUser(u);
    }
    ASSERT_EQ(tweets, world.corpus.TweetsByUser(u));
    ASSERT_EQ(mentions, world.corpus.MentionsOfUser(u));
    ASSERT_EQ(retweets, world.corpus.RetweetsOfUser(u));
  }

  // And each cold shard answers queries (generation 1 published).
  for (const cluster::ColdShard& shard : *cold) {
    EXPECT_EQ(shard.manager->version(), 1u);
    ASSERT_NE(shard.manager->Acquire(), nullptr);
  }

  // A missing shard file fails naming the shard: with the wrong shard
  // count every name is wrong, so shard 0 is the first to fail.
  Result<std::vector<cluster::ColdShard>> missing =
      cluster::LoadShardSnapshots(prefix, kShards + 1);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("shard 0 cold start failed"),
            std::string::npos);
  // And corrupting one shard's file fails naming that shard.
  const std::string victim = cluster::ShardSnapshotPath(prefix, 2, kShards);
  Result<std::string> bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.MoveValueUnsafe();
  mutated[mutated.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteStringToFile(victim, mutated).ok());
  Result<std::vector<cluster::ColdShard>> corrupt =
      cluster::LoadShardSnapshots(prefix, kShards);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("shard 2 cold start failed"),
            std::string::npos);
}

// ---- Incrementally-built snapshots ----------------------------------------

// A generation assembled by N delta publishes (COW corpus tail, shared
// evidence pools, reused store) must save and cold-start exactly like one
// built offline: the file format sees only the logical artifacts, never
// the structural sharing behind them.
TEST(IngestSnapshotRoundTripTest, DeltaBuiltGenerationColdStartsBitIdentically) {
  serving::SnapshotManager manager;
  ingest::IngestOptions options;
  options.extraction.min_query_count = 2;
  options.extraction.min_similarity = 0.05;
  ingest::IngestPipeline pipeline(&manager, options);

  const char* kTerms[] = {"solar", "panels", "hockey", "sushi"};
  for (microblog::UserId u = 0; u < 6; ++u) {
    microblog::UserProfile profile;
    profile.id = u;
    profile.screen_name = "u" + std::to_string(u);
    pipeline.AppendUser(profile);
  }
  Rng rng(7);
  for (size_t batch = 0; batch < 4; ++batch) {
    for (size_t i = 0; i < 40; ++i) {
      const char* a = kTerms[rng.Uniform(4)];
      const char* b = kTerms[rng.Uniform(4)];
      switch (rng.Uniform(4)) {
        case 0:
          pipeline.AppendSearches(std::string(a) + " " + b, 1);
          break;
        case 1:
          pipeline.AppendClicks(std::string(a), rng.Uniform(6), 1 + rng.Uniform(3));
          break;
        default:
          pipeline.AppendTweet(rng.Uniform(6),
                               std::string("about ") + a + " " + b,
                               {rng.Uniform(6)}, rng.Uniform(3));
      }
    }
    ASSERT_TRUE(pipeline.Publish().ok());
  }

  const std::string path = TempPath("ingest_roundtrip.esnap");
  ASSERT_TRUE(manager.SaveSnapshot(path).ok());
  Result<serving::SnapshotManager::ColdStartArtifacts> cold =
      serving::SnapshotManager::LoadSnapshot(path);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  std::shared_ptr<const serving::ServingSnapshot> snapshot =
      cold->manager->Acquire();
  ASSERT_NE(snapshot, nullptr);

  // The decoded world equals the live delta world, surface by surface.
  Status corpus_ok =
      ingest::CompareCorpora(*cold->corpus, *pipeline.published_corpus());
  EXPECT_TRUE(corpus_ok.ok()) << corpus_ok.message();
  ASSERT_NE(snapshot->evidence(), nullptr);
  Status evidence_ok = ingest::CompareEvidence(
      *snapshot->evidence(), *pipeline.published_evidence());
  EXPECT_TRUE(evidence_ok.ok()) << evidence_ok.message();
  EXPECT_EQ(SortedTsvLines(snapshot->store().SerializeTsv()),
            SortedTsvLines(pipeline.published_store()->SerializeTsv()));

  // And it answers like the live one, end to end.
  std::shared_ptr<const serving::ServingSnapshot> live = manager.Acquire();
  ASSERT_NE(live, nullptr);
  for (const char* term : kTerms) {
    Result<std::vector<expert::RankedExpert>> got =
        snapshot->esharp().FindExperts(term);
    Result<std::vector<expert::RankedExpert>> want =
        live->esharp().FindExperts(term);
    ASSERT_EQ(got.ok(), want.ok()) << term;
    if (!got.ok()) continue;
    Status ranked_ok = ingest::CompareRanked(*got, *want, term);
    EXPECT_TRUE(ranked_ok.ok()) << ranked_ok.message();
  }
}

}  // namespace
}  // namespace esharp
