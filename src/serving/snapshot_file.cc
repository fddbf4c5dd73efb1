#include "serving/snapshot_file.h"

#include <cstring>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "common/simd.h"

namespace esharp::serving {

namespace {

// Section ids, in file order. EVIDENCE is optional.
enum SectionId : uint32_t {
  kMeta = 1,
  kUsers = 2,
  kTweets = 3,
  kTokens = 4,
  kTotals = 5,
  kStore = 6,
  kEvidence = 7,
};

const char* SectionName(uint32_t id) {
  switch (id) {
    case kMeta: return "META";
    case kUsers: return "USERS";
    case kTweets: return "TWEETS";
    case kTokens: return "TOKENS";
    case kTotals: return "TOTALS";
    case kStore: return "STORE";
    case kEvidence: return "EVIDENCE";
  }
  return "?";
}

constexpr size_t kHeaderBytes = 24;       // magic + version + count + cksum
constexpr size_t kSectionEntryBytes = 32; // id + reserved + off + size + cksum
constexpr uint32_t kMaxSections = 64;     // format sanity bound

// ---- writer ---------------------------------------------------------------

void AppendU32(std::string* s, uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  s->append(b, 4);
}

void AppendU64(std::string* s, uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s->append(b, 8);
}

void AppendF64(std::string* s, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s->append(b, 8);
}

template <typename T>
void AppendArray(std::string* s, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  s->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// Writes a string column: offsets[n+1] (u64, into the blob) then the blob.
void AppendStringColumn(std::string* s, const std::vector<std::string>& col) {
  uint64_t off = 0;
  AppendU64(s, off);
  for (const std::string& str : col) {
    off += str.size();
    AppendU64(s, off);
  }
  for (const std::string& str : col) s->append(str);
}

std::string EncodeMeta(const microblog::TweetCorpus& corpus,
                       const community::CommunityStore& store,
                       bool has_evidence) {
  std::string s;
  AppendU64(&s, corpus.num_users());
  AppendU64(&s, corpus.num_tweets());
  AppendU64(&s, corpus.num_tokens());
  AppendU64(&s, store.num_communities());
  AppendU64(&s, has_evidence ? 1 : 0);
  return s;
}

std::string EncodeUsers(const microblog::TweetCorpus& corpus) {
  const size_t n = corpus.num_users();
  std::string s;
  AppendU64(&s, n);
  std::vector<std::string> screen_names(n), descriptions(n);
  std::vector<uint8_t> verified(n), kind(n);
  std::vector<uint64_t> followers(n);
  std::vector<uint32_t> domain(n);
  for (size_t i = 0; i < n; ++i) {
    const microblog::UserProfile& user =
        corpus.user(static_cast<microblog::UserId>(i));
    screen_names[i] = user.screen_name;
    descriptions[i] = user.description;
    verified[i] = user.verified ? 1 : 0;
    kind[i] = static_cast<uint8_t>(user.kind);
    followers[i] = user.followers;
    domain[i] = user.domain;
  }
  AppendStringColumn(&s, screen_names);
  AppendStringColumn(&s, descriptions);
  AppendArray(&s, verified);
  AppendArray(&s, kind);
  AppendArray(&s, followers);
  AppendArray(&s, domain);
  return s;
}

std::string EncodeTweets(const microblog::TweetCorpus& corpus) {
  const size_t n = corpus.num_tweets();
  std::string s;
  AppendU64(&s, n);
  std::vector<uint32_t> author(n), retweets(n);
  std::vector<std::string> text(n);
  std::vector<uint64_t> mention_offsets;
  std::vector<uint32_t> mention_flat;
  mention_offsets.reserve(n + 1);
  mention_offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    const microblog::Tweet& tweet = corpus.tweet(static_cast<uint32_t>(i));
    author[i] = tweet.author;
    retweets[i] = tweet.retweet_count;
    text[i] = tweet.text;
    mention_flat.insert(mention_flat.end(), tweet.mentions.begin(),
                        tweet.mentions.end());
    mention_offsets.push_back(mention_flat.size());
  }
  AppendArray(&s, author);
  AppendArray(&s, retweets);
  AppendStringColumn(&s, text);
  AppendArray(&s, mention_offsets);
  AppendArray(&s, mention_flat);
  return s;
}

std::string EncodeTokens(const microblog::TweetCorpus& corpus) {
  const size_t n = corpus.num_tokens();
  std::string s;
  AppendU64(&s, n);
  AppendStringColumn(&s, corpus.TokenStrings());
  std::vector<uint64_t> postings_offsets;
  postings_offsets.reserve(n + 1);
  postings_offsets.push_back(0);
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += corpus.Postings(static_cast<microblog::TokenId>(i)).size();
    postings_offsets.push_back(total);
  }
  AppendArray(&s, postings_offsets);
  for (size_t i = 0; i < n; ++i) {
    AppendArray(&s, corpus.Postings(static_cast<microblog::TokenId>(i)));
  }
  return s;
}

std::string EncodeTotals(const microblog::TweetCorpus& corpus) {
  const size_t n = corpus.num_users();
  std::string s;
  AppendU64(&s, n);
  for (size_t i = 0; i < n; ++i) {
    AppendU64(&s, corpus.TweetsByUser(static_cast<microblog::UserId>(i)));
  }
  for (size_t i = 0; i < n; ++i) {
    AppendU64(&s, corpus.MentionsOfUser(static_cast<microblog::UserId>(i)));
  }
  for (size_t i = 0; i < n; ++i) {
    AppendU64(&s, corpus.RetweetsOfUser(static_cast<microblog::UserId>(i)));
  }
  return s;
}

std::string EncodeStore(const community::CommunityStore& store) {
  const std::vector<community::Community>& communities = store.communities();
  const size_t n = communities.size();
  std::string s;
  AppendU64(&s, n);
  // Terms of community i live at [term_offsets[i], term_offsets[i+1]) of a
  // flattened string column.
  std::vector<uint64_t> term_offsets;
  std::vector<std::string> terms;
  term_offsets.reserve(n + 1);
  term_offsets.push_back(0);
  for (const community::Community& c : communities) {
    terms.insert(terms.end(), c.terms.begin(), c.terms.end());
    term_offsets.push_back(terms.size());
  }
  AppendArray(&s, term_offsets);
  AppendU64(&s, terms.size());
  AppendStringColumn(&s, terms);
  const std::vector<std::pair<uint64_t, double>> weights =
      store.InterWeights();
  AppendU64(&s, weights.size());
  for (const auto& [key, w] : weights) AppendU64(&s, key);
  for (const auto& [key, w] : weights) AppendF64(&s, w);
  return s;
}

std::string EncodeEvidence(const expert::TermEvidenceIndex& evidence) {
  const size_t n = evidence.num_pools();
  std::string s;
  AppendU64(&s, n);
  AppendStringColumn(&s, evidence.TermStrings());
  std::vector<uint64_t> pool_offsets;
  pool_offsets.reserve(n + 1);
  pool_offsets.push_back(0);
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += evidence.pool(i).size();
    pool_offsets.push_back(total);
  }
  AppendArray(&s, pool_offsets);
  // Columnar pool entries: users, author/mention flags, then the five
  // counters, each as one contiguous array across all pools.
  std::vector<uint32_t> user(total);
  std::vector<uint8_t> flags(total);
  std::vector<uint64_t> tweets(total), mentions(total), retweets(total),
      conversational(total), hashtag(total);
  size_t at = 0;
  for (size_t i = 0; i < n; ++i) {
    for (const expert::CandidateEvidence& e : evidence.pool(i)) {
      user[at] = e.user;
      flags[at] = static_cast<uint8_t>((e.is_author ? 1 : 0) |
                                       (e.is_mentioned ? 2 : 0));
      tweets[at] = e.tweets_on_topic;
      mentions[at] = e.mentions_on_topic;
      retweets[at] = e.retweets_on_topic;
      conversational[at] = e.conversational_on_topic;
      hashtag[at] = e.hashtag_on_topic;
      ++at;
    }
  }
  AppendArray(&s, user);
  AppendArray(&s, flags);
  AppendArray(&s, tweets);
  AppendArray(&s, mentions);
  AppendArray(&s, retweets);
  AppendArray(&s, conversational);
  AppendArray(&s, hashtag);
  return s;
}

// ---- reader ---------------------------------------------------------------

/// Bounds-checked cursor over one section's bytes. Every primitive checks
/// remaining length, so a corrupted count can fail cleanly mid-decode but
/// can never read outside the mapped file.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, const char* section)
      : p_(data), n_(size), section_(section) {}

  Status ReadU32(uint32_t* v) { return ReadRaw(v, 4); }
  Status ReadU64(uint64_t* v) { return ReadRaw(v, 8); }

  /// Reads `count` fixed-width elements. Guards count*width overflow by
  /// checking against the remaining bytes first.
  template <typename T>
  Status ReadArray(size_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > (n_ - pos_) / sizeof(T)) {
      return Status::IOError("snapshot section ", section_,
                             ": array of ", count, " x ", sizeof(T),
                             "B overruns section (", n_ - pos_,
                             " bytes left)");
    }
    out->resize(count);
    // An empty vector's data() may be null, and memcpy with a null pointer
    // is undefined even for zero bytes.
    if (count == 0) return Status::OK();
    std::memcpy(out->data(), p_ + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::OK();
  }

  /// Reads a string column written by AppendStringColumn: offsets[count+1]
  /// then the blob the offsets index into.
  Status ReadStringColumn(size_t count, std::vector<std::string>* out) {
    std::vector<uint64_t> offsets;
    ESHARP_RETURN_NOT_OK(ReadArray(count + 1, &offsets));
    if (offsets[0] != 0) {
      return Status::IOError("snapshot section ", section_,
                             ": string column does not start at 0");
    }
    for (size_t i = 0; i < count; ++i) {
      if (offsets[i + 1] < offsets[i]) {
        return Status::IOError("snapshot section ", section_,
                               ": string offsets not monotone");
      }
    }
    const uint64_t blob = offsets[count];
    if (blob > n_ - pos_) {
      return Status::IOError("snapshot section ", section_, ": string blob (",
                             blob, "B) overruns section");
    }
    out->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*out)[i].assign(reinterpret_cast<const char*>(p_ + pos_ + offsets[i]),
                       offsets[i + 1] - offsets[i]);
    }
    pos_ += blob;
    return Status::OK();
  }

  size_t remaining() const { return n_ - pos_; }
  const char* section() const { return section_; }

 private:
  Status ReadRaw(void* out, size_t len) {
    if (len > n_ - pos_) {
      return Status::IOError("snapshot section ", section_,
                             ": truncated read at offset ", pos_);
    }
    std::memcpy(out, p_ + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  const uint8_t* p_;
  size_t n_;
  size_t pos_ = 0;
  const char* section_;
};

/// Splits a flattened array back into per-row vectors using an offsets
/// array (offsets[i+1] >= offsets[i], already validated by the caller).
template <typename T>
std::vector<std::vector<T>> Unflatten(const std::vector<uint64_t>& offsets,
                                      const std::vector<T>& flat) {
  const size_t n = offsets.size() - 1;
  std::vector<std::vector<T>> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].assign(flat.begin() + offsets[i], flat.begin() + offsets[i + 1]);
  }
  return out;
}

Status CheckOffsets(const std::vector<uint64_t>& offsets, uint64_t total,
                    const char* section) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != total) {
    return Status::IOError("snapshot section ", section,
                           ": offsets do not span the flat array");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i + 1] < offsets[i]) {
      return Status::IOError("snapshot section ", section,
                             ": offsets not monotone");
    }
  }
  return Status::OK();
}

struct MetaCounts {
  uint64_t num_users = 0;
  uint64_t num_tweets = 0;
  uint64_t num_tokens = 0;
  uint64_t num_communities = 0;
  bool has_evidence = false;
};

Status DecodeMeta(ByteReader* r, MetaCounts* meta) {
  uint64_t has_evidence = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&meta->num_users));
  ESHARP_RETURN_NOT_OK(r->ReadU64(&meta->num_tweets));
  ESHARP_RETURN_NOT_OK(r->ReadU64(&meta->num_tokens));
  ESHARP_RETURN_NOT_OK(r->ReadU64(&meta->num_communities));
  ESHARP_RETURN_NOT_OK(r->ReadU64(&has_evidence));
  meta->has_evidence = has_evidence != 0;
  return Status::OK();
}

Status DecodeUsers(ByteReader* r, std::vector<microblog::UserProfile>* out) {
  uint64_t n = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&n));
  std::vector<std::string> screen_names, descriptions;
  std::vector<uint8_t> verified, kind;
  std::vector<uint64_t> followers;
  std::vector<uint32_t> domain;
  ESHARP_RETURN_NOT_OK(r->ReadStringColumn(n, &screen_names));
  ESHARP_RETURN_NOT_OK(r->ReadStringColumn(n, &descriptions));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, &verified));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, &kind));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, &followers));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, &domain));
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    microblog::UserProfile& u = (*out)[i];
    u.id = static_cast<microblog::UserId>(i);
    u.screen_name = std::move(screen_names[i]);
    u.description = std::move(descriptions[i]);
    u.verified = verified[i] != 0;
    if (kind[i] > static_cast<uint8_t>(microblog::AccountKind::kSpam)) {
      return Status::IOError("snapshot section USERS: bad account kind ",
                             kind[i], " for user ", i);
    }
    u.kind = static_cast<microblog::AccountKind>(kind[i]);
    u.followers = followers[i];
    u.domain = domain[i];
  }
  return Status::OK();
}

Status DecodeTweets(ByteReader* r, uint64_t num_users,
                    std::vector<microblog::Tweet>* out) {
  uint64_t n = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&n));
  std::vector<uint32_t> author, retweets;
  std::vector<std::string> text;
  std::vector<uint64_t> mention_offsets;
  std::vector<uint32_t> mention_flat;
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, &author));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, &retweets));
  ESHARP_RETURN_NOT_OK(r->ReadStringColumn(n, &text));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n + 1, &mention_offsets));
  const uint64_t num_mentions = mention_offsets.empty()
                                    ? 0
                                    : mention_offsets.back();
  ESHARP_RETURN_NOT_OK(CheckOffsets(mention_offsets, num_mentions, "TWEETS"));
  ESHARP_RETURN_NOT_OK(r->ReadArray(num_mentions, &mention_flat));
  for (uint32_t a : author) {
    if (a >= num_users) {
      return Status::IOError("snapshot section TWEETS: author ", a,
                             " out of range (", num_users, " users)");
    }
  }
  for (uint32_t m : mention_flat) {
    if (m >= num_users) {
      return Status::IOError("snapshot section TWEETS: mention ", m,
                             " out of range (", num_users, " users)");
    }
  }
  std::vector<std::vector<uint32_t>> mentions =
      Unflatten(mention_offsets, mention_flat);
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    microblog::Tweet& t = (*out)[i];
    t.id = static_cast<uint32_t>(i);
    t.author = author[i];
    t.text = std::move(text[i]);
    t.mentions = std::move(mentions[i]);
    t.retweet_count = retweets[i];
  }
  return Status::OK();
}

Status DecodeTokens(ByteReader* r, uint64_t num_tweets,
                    std::vector<std::string>* tokens,
                    std::vector<std::vector<uint32_t>>* postings) {
  uint64_t n = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&n));
  ESHARP_RETURN_NOT_OK(r->ReadStringColumn(n, tokens));
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> flat;
  ESHARP_RETURN_NOT_OK(r->ReadArray(n + 1, &offsets));
  const uint64_t total = offsets.empty() ? 0 : offsets.back();
  ESHARP_RETURN_NOT_OK(CheckOffsets(offsets, total, "TOKENS"));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &flat));
  for (uint32_t id : flat) {
    if (id >= num_tweets) {
      return Status::IOError("snapshot section TOKENS: posting ", id,
                             " out of range (", num_tweets, " tweets)");
    }
  }
  *postings = Unflatten(offsets, flat);
  return Status::OK();
}

Status DecodeTotals(ByteReader* r, uint64_t num_users,
                    std::vector<uint64_t>* tweets_by_user,
                    std::vector<uint64_t>* mentions_of_user,
                    std::vector<uint64_t>* retweets_of_user) {
  uint64_t n = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&n));
  if (n != num_users) {
    return Status::IOError("snapshot section TOTALS: ", n,
                           " entries for ", num_users, " users");
  }
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, tweets_by_user));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, mentions_of_user));
  ESHARP_RETURN_NOT_OK(r->ReadArray(n, retweets_of_user));
  return Status::OK();
}

Status DecodeStore(ByteReader* r,
                   std::shared_ptr<const community::CommunityStore>* out) {
  uint64_t n = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&n));
  std::vector<uint64_t> term_offsets;
  ESHARP_RETURN_NOT_OK(r->ReadArray(n + 1, &term_offsets));
  uint64_t num_terms = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&num_terms));
  ESHARP_RETURN_NOT_OK(CheckOffsets(term_offsets, num_terms, "STORE"));
  std::vector<std::string> terms;
  ESHARP_RETURN_NOT_OK(r->ReadStringColumn(num_terms, &terms));
  uint64_t num_weights = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&num_weights));
  std::vector<uint64_t> keys;
  std::vector<double> weights;
  ESHARP_RETURN_NOT_OK(r->ReadArray(num_weights, &keys));
  ESHARP_RETURN_NOT_OK(r->ReadArray(num_weights, &weights));
  std::vector<community::Community> communities(n);
  for (size_t i = 0; i < n; ++i) {
    communities[i].id = static_cast<community::CommunityId>(i);
    communities[i].terms.assign(
        std::make_move_iterator(terms.begin() + term_offsets[i]),
        std::make_move_iterator(terms.begin() + term_offsets[i + 1]));
  }
  std::vector<std::pair<uint64_t, double>> inter(num_weights);
  for (size_t i = 0; i < num_weights; ++i) inter[i] = {keys[i], weights[i]};
  *out = std::make_shared<const community::CommunityStore>(
      community::CommunityStore::FromSnapshotParts(std::move(communities),
                                                   inter));
  return Status::OK();
}

Status DecodeEvidence(
    ByteReader* r, uint64_t num_users,
    std::shared_ptr<const expert::TermEvidenceIndex>* out) {
  uint64_t n = 0;
  ESHARP_RETURN_NOT_OK(r->ReadU64(&n));
  std::vector<std::string> terms;
  ESHARP_RETURN_NOT_OK(r->ReadStringColumn(n, &terms));
  std::vector<uint64_t> offsets;
  ESHARP_RETURN_NOT_OK(r->ReadArray(n + 1, &offsets));
  const uint64_t total = offsets.empty() ? 0 : offsets.back();
  ESHARP_RETURN_NOT_OK(CheckOffsets(offsets, total, "EVIDENCE"));
  std::vector<uint32_t> user;
  std::vector<uint8_t> flags;
  std::vector<uint64_t> tweets, mentions, retweets, conversational, hashtag;
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &user));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &flags));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &tweets));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &mentions));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &retweets));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &conversational));
  ESHARP_RETURN_NOT_OK(r->ReadArray(total, &hashtag));
  std::vector<expert::CandidateEvidence> flat(total);
  for (size_t i = 0; i < total; ++i) {
    if (user[i] >= num_users) {
      return Status::IOError("snapshot section EVIDENCE: user ", user[i],
                             " out of range (", num_users, " users)");
    }
    expert::CandidateEvidence& e = flat[i];
    e.user = user[i];
    e.is_author = (flags[i] & 1) != 0;
    e.is_mentioned = (flags[i] & 2) != 0;
    e.tweets_on_topic = tweets[i];
    e.mentions_on_topic = mentions[i];
    e.retweets_on_topic = retweets[i];
    e.conversational_on_topic = conversational[i];
    e.hashtag_on_topic = hashtag[i];
  }
  std::vector<std::vector<expert::CandidateEvidence>> pools =
      Unflatten(offsets, flat);
  *out = std::make_shared<const expert::TermEvidenceIndex>(
      expert::TermEvidenceIndex::FromSnapshotParts(std::move(terms),
                                                   std::move(pools)));
  return Status::OK();
}

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

}  // namespace

Status SaveSnapshotFile(const std::string& path,
                        const microblog::TweetCorpus& corpus,
                        const community::CommunityStore& store,
                        const expert::TermEvidenceIndex* evidence) {
  std::vector<std::pair<uint32_t, std::string>> sections;
  sections.emplace_back(kMeta,
                        EncodeMeta(corpus, store, evidence != nullptr));
  sections.emplace_back(kUsers, EncodeUsers(corpus));
  sections.emplace_back(kTweets, EncodeTweets(corpus));
  sections.emplace_back(kTokens, EncodeTokens(corpus));
  sections.emplace_back(kTotals, EncodeTotals(corpus));
  sections.emplace_back(kStore, EncodeStore(store));
  if (evidence != nullptr) {
    sections.emplace_back(kEvidence, EncodeEvidence(*evidence));
  }

  // Lay sections out 8-byte aligned after the header + table.
  const uint32_t count = static_cast<uint32_t>(sections.size());
  uint64_t offset = kHeaderBytes + count * kSectionEntryBytes;
  std::string table;
  for (const auto& [id, body] : sections) {
    offset = (offset + 7) & ~uint64_t{7};
    AppendU32(&table, id);
    AppendU32(&table, 0);  // reserved
    AppendU64(&table, offset);
    AppendU64(&table, body.size());
    AppendU64(&table, simd::Checksum64(body.data(), body.size()));
    offset += body.size();
  }

  std::string file;
  file.reserve(offset);
  AppendU64(&file, kSnapshotMagic);
  AppendU32(&file, kSnapshotFormatVersion);
  AppendU32(&file, count);
  AppendU64(&file, simd::Checksum64(table.data(), table.size()));
  file += table;
  for (const auto& [id, body] : sections) {
    file.resize((file.size() + 7) & ~uint64_t{7}, '\0');  // alignment pad
    file += body;
  }
  return WriteStringToFile(path, file);
}

Result<SnapshotArtifacts> LoadSnapshotFile(const std::string& path) {
  MmapFile file;
  ESHARP_RETURN_NOT_OK(file.Open(path));
  const uint8_t* data = file.data();
  const uint64_t size = file.size();
  if (size < kHeaderBytes) {
    return Status::IOError("snapshot '", path, "': ", size,
                           " bytes is smaller than the header");
  }
  uint64_t magic = 0;
  uint32_t version = 0, count = 0;
  uint64_t table_checksum = 0;
  std::memcpy(&magic, data, 8);
  std::memcpy(&version, data + 8, 4);
  std::memcpy(&count, data + 12, 4);
  std::memcpy(&table_checksum, data + 16, 8);
  if (magic != kSnapshotMagic) {
    return Status::IOError("snapshot '", path, "': bad magic");
  }
  if (version != kSnapshotFormatVersion) {
    return Status::FailedPrecondition(
        "snapshot '", path, "': format version ", version,
        " (this build reads version ", kSnapshotFormatVersion,
        "); regenerate the snapshot");
  }
  if (count == 0 || count > kMaxSections) {
    return Status::IOError("snapshot '", path, "': implausible section count ",
                           count);
  }
  const uint64_t table_bytes = uint64_t{count} * kSectionEntryBytes;
  if (kHeaderBytes + table_bytes > size) {
    return Status::IOError("snapshot '", path,
                           "': section table overruns file");
  }
  if (simd::Checksum64(data + kHeaderBytes, table_bytes) != table_checksum) {
    return Status::IOError("snapshot '", path,
                           "': section table checksum mismatch");
  }

  std::vector<SectionEntry> entries(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* e = data + kHeaderBytes + i * kSectionEntryBytes;
    std::memcpy(&entries[i].id, e, 4);
    std::memcpy(&entries[i].offset, e + 8, 8);
    std::memcpy(&entries[i].size, e + 16, 8);
    std::memcpy(&entries[i].checksum, e + 24, 8);
    if (entries[i].offset > size || entries[i].size > size - entries[i].offset) {
      return Status::IOError("snapshot '", path, "': section ",
                             SectionName(entries[i].id), " overruns file");
    }
    if (simd::Checksum64(data + entries[i].offset, entries[i].size) !=
        entries[i].checksum) {
      return Status::IOError("snapshot '", path, "': section ",
                             SectionName(entries[i].id),
                             " checksum mismatch");
    }
  }

  auto find = [&](uint32_t id) -> const SectionEntry* {
    for (const SectionEntry& e : entries) {
      if (e.id == id) return &e;
    }
    return nullptr;
  };
  auto reader_for = [&](const SectionEntry* e) {
    return ByteReader(data + e->offset, e->size, SectionName(e->id));
  };
  auto require = [&](uint32_t id, const SectionEntry** e) -> Status {
    *e = find(id);
    if (*e == nullptr) {
      return Status::IOError("snapshot '", path, "': missing section ",
                             SectionName(id));
    }
    return Status::OK();
  };

  const SectionEntry* meta_e = nullptr;
  const SectionEntry* users_e = nullptr;
  const SectionEntry* tweets_e = nullptr;
  const SectionEntry* tokens_e = nullptr;
  const SectionEntry* totals_e = nullptr;
  const SectionEntry* store_e = nullptr;
  ESHARP_RETURN_NOT_OK(require(kMeta, &meta_e));
  ESHARP_RETURN_NOT_OK(require(kUsers, &users_e));
  ESHARP_RETURN_NOT_OK(require(kTweets, &tweets_e));
  ESHARP_RETURN_NOT_OK(require(kTokens, &tokens_e));
  ESHARP_RETURN_NOT_OK(require(kTotals, &totals_e));
  ESHARP_RETURN_NOT_OK(require(kStore, &store_e));

  MetaCounts meta;
  {
    ByteReader r = reader_for(meta_e);
    ESHARP_RETURN_NOT_OK(DecodeMeta(&r, &meta));
  }

  std::vector<microblog::UserProfile> users;
  {
    ByteReader r = reader_for(users_e);
    ESHARP_RETURN_NOT_OK(DecodeUsers(&r, &users));
  }
  if (users.size() != meta.num_users) {
    return Status::IOError("snapshot '", path, "': USERS has ", users.size(),
                           " entries, META says ", meta.num_users);
  }

  std::vector<microblog::Tweet> tweets;
  {
    ByteReader r = reader_for(tweets_e);
    ESHARP_RETURN_NOT_OK(DecodeTweets(&r, users.size(), &tweets));
  }
  if (tweets.size() != meta.num_tweets) {
    return Status::IOError("snapshot '", path, "': TWEETS has ",
                           tweets.size(), " entries, META says ",
                           meta.num_tweets);
  }

  std::vector<std::string> tokens;
  std::vector<std::vector<uint32_t>> postings;
  {
    ByteReader r = reader_for(tokens_e);
    ESHARP_RETURN_NOT_OK(DecodeTokens(&r, tweets.size(), &tokens, &postings));
  }
  if (tokens.size() != meta.num_tokens) {
    return Status::IOError("snapshot '", path, "': TOKENS has ",
                           tokens.size(), " entries, META says ",
                           meta.num_tokens);
  }

  std::vector<uint64_t> tweets_by_user, mentions_of_user, retweets_of_user;
  {
    ByteReader r = reader_for(totals_e);
    ESHARP_RETURN_NOT_OK(DecodeTotals(&r, users.size(), &tweets_by_user,
                                      &mentions_of_user, &retweets_of_user));
  }

  SnapshotArtifacts artifacts;
  {
    ByteReader r = reader_for(store_e);
    ESHARP_RETURN_NOT_OK(DecodeStore(&r, &artifacts.store));
  }
  if (artifacts.store->num_communities() != meta.num_communities) {
    return Status::IOError("snapshot '", path, "': STORE has ",
                           artifacts.store->num_communities(),
                           " communities, META says ", meta.num_communities);
  }

  const SectionEntry* evidence_e = find(kEvidence);
  if (meta.has_evidence != (evidence_e != nullptr)) {
    return Status::IOError("snapshot '", path,
                           "': META/EVIDENCE presence mismatch");
  }
  if (evidence_e != nullptr) {
    ByteReader r = reader_for(evidence_e);
    ESHARP_RETURN_NOT_OK(DecodeEvidence(&r, users.size(),
                                        &artifacts.evidence));
  }

  artifacts.corpus = std::make_shared<microblog::TweetCorpus>(
      microblog::TweetCorpus::FromSnapshotParts(
          std::move(users), std::move(tweets), std::move(tokens),
          std::move(postings), std::move(tweets_by_user),
          std::move(mentions_of_user), std::move(retweets_of_user)));
  artifacts.info.format_version = version;
  artifacts.info.file_bytes = size;
  artifacts.info.num_sections = count;
  artifacts.info.has_evidence = evidence_e != nullptr;
  return artifacts;
}

}  // namespace esharp::serving
