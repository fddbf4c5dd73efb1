// Brute-force answer oracle: a from-the-definitions reimplementation of the
// paper's expansion (§5) and ranking (§3) that shares only string
// normalization (ToLowerAscii, SplitWhitespace) with src/.

#ifndef ESHARP_PERFBENCH_ORACLE_H_
#define ESHARP_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "community/store.h"
#include "esharp/esharp.h"
#include "expert/detector.h"
#include "microblog/corpus.h"

namespace esharp::perfbench {

class Oracle {
 public:
  struct Expert {
    uint32_t user = 0;
    double score = 0;
  };

  /// Reads every tweet of `corpus` once (text, author, mentions, retweets)
  /// and every community of `store`.
  Oracle(const community::CommunityStore& store,
         const microblog::TweetCorpus& corpus, core::ESharpOptions options);

  /// Users surfaced by the query alone (expanded = false, the baseline) or
  /// by all of its expansion terms (e#), ascending.
  std::vector<uint32_t> PoolUsers(const std::string& query,
                                  bool expanded) const;

  /// Every candidate, ranked (no threshold, no cap).
  std::vector<Expert> Rank(const std::string& query) const;

  /// "" when `got` is the answer the definitions give for `query`, within
  /// 1e-9 relative; otherwise what differs.
  std::string Compare(const std::string& query,
                      const std::vector<expert::RankedExpert>& got) const;

 private:
  struct Evidence {
    uint64_t tweets = 0, mentions = 0, retweets = 0;
  };
  /// Expansion terms: the lower-cased query, then the siblings of the
  /// community holding it verbatim, capped at max_expansion_terms.
  std::vector<std::string> Expand(const std::string& query) const;
  /// Summed evidence of `terms` over every tweet, keyed by user.
  std::unordered_map<uint32_t, Evidence> Collect(
      const std::vector<std::string>& terms) const;

  core::ESharpOptions options_;
  std::vector<std::vector<std::string>> communities_;  // lower-cased terms
  std::unordered_map<std::string, uint32_t> dictionary_;
  struct TweetRow {
    std::vector<uint32_t> tokens;  // sorted, unique
    uint32_t author = 0;
    uint32_t retweets = 0;
    std::vector<uint32_t> mentions;
  };
  std::vector<TweetRow> tweets_;
  std::vector<Evidence> totals_;  // per user, over the whole corpus
};

}  // namespace esharp::perfbench

#endif  // ESHARP_PERFBENCH_ORACLE_H_
