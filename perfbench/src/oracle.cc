#include "oracle.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace esharp::perfbench {

namespace {

bool Close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// Mean and population standard deviation, two passes.
std::pair<double, double> MeanSd(const std::vector<double>& xs) {
  double sum = 0;
  for (double x : xs) sum += x;
  double mean = sum / static_cast<double>(xs.size());
  double ss = 0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return {mean, std::sqrt(ss / static_cast<double>(xs.size()))};
}

}  // namespace

Oracle::Oracle(const community::CommunityStore& store,
               const microblog::TweetCorpus& corpus, core::ESharpOptions options)
    : options_(options) {
  for (const community::Community& c : store.communities()) {
    std::vector<std::string> terms;
    for (const std::string& t : c.terms) terms.push_back(ToLowerAscii(t));
    communities_.push_back(std::move(terms));
  }
  totals_.resize(corpus.num_users());
  tweets_.resize(corpus.num_tweets());
  for (uint32_t i = 0; i < corpus.num_tweets(); ++i) {
    const microblog::Tweet& t = corpus.tweet(i);
    TweetRow& row = tweets_[i];
    for (const std::string& token : SplitWhitespace(ToLowerAscii(t.text))) {
      auto [it, fresh] = dictionary_.emplace(
          token, static_cast<uint32_t>(dictionary_.size()));
      row.tokens.push_back(it->second);
    }
    std::sort(row.tokens.begin(), row.tokens.end());
    row.tokens.erase(std::unique(row.tokens.begin(), row.tokens.end()),
                     row.tokens.end());
    row.author = t.author;
    row.retweets = t.retweet_count;
    row.mentions = t.mentions;
    totals_[t.author].tweets += 1;
    totals_[t.author].retweets += t.retweet_count;
    for (uint32_t m : t.mentions) totals_[m].mentions += 1;
  }
}

std::vector<std::string> Oracle::Expand(const std::string& query) const {
  std::string q = ToLowerAscii(query);
  std::vector<std::string> terms{q};
  for (const std::vector<std::string>& community : communities_) {
    if (std::find(community.begin(), community.end(), q) == community.end()) {
      continue;
    }
    for (const std::string& term : community) {
      if (terms.size() >= options_.max_expansion_terms) break;
      if (term != q) terms.push_back(term);
    }
    break;
  }
  return terms;
}

std::unordered_map<uint32_t, Oracle::Evidence> Oracle::Collect(
    const std::vector<std::string>& terms) const {
  std::unordered_map<uint32_t, Evidence> pool;
  for (const std::string& term : terms) {
    std::vector<uint32_t> want;
    bool known = true;
    for (const std::string& token : SplitWhitespace(term)) {
      auto it = dictionary_.find(token);
      if (it == dictionary_.end()) {
        known = false;
        break;
      }
      want.push_back(it->second);
    }
    if (!known || want.empty()) continue;
    for (const TweetRow& row : tweets_) {
      bool all = true;
      for (uint32_t token : want) {
        if (!std::binary_search(row.tokens.begin(), row.tokens.end(), token)) {
          all = false;
          break;
        }
      }
      if (!all) continue;
      Evidence& author = pool[row.author];
      author.tweets += 1;
      author.retweets += row.retweets;
      for (uint32_t m : row.mentions) pool[m].mentions += 1;
    }
  }
  return pool;
}

std::vector<uint32_t> Oracle::PoolUsers(const std::string& query,
                                        bool expanded) const {
  std::vector<std::string> terms =
      expanded ? Expand(query) : std::vector<std::string>{ToLowerAscii(query)};
  std::vector<uint32_t> users;
  for (const auto& [user, evidence] : Collect(terms)) users.push_back(user);
  std::sort(users.begin(), users.end());
  return users;
}

std::vector<Oracle::Expert> Oracle::Rank(const std::string& query) const {
  std::unordered_map<uint32_t, Evidence> pool = Collect(Expand(query));
  const expert::DetectorOptions& d = options_.detector;
  const double eps = d.smoothing;
  std::vector<uint32_t> users;
  std::vector<double> ts, mi, ri;
  for (const auto& [user, e] : pool) {
    const Evidence& total = totals_[user];
    users.push_back(user);
    ts.push_back(std::log((e.tweets + eps) / (total.tweets + eps)));
    mi.push_back(std::log((e.mentions + eps) / (total.mentions + eps)));
    ri.push_back(std::log((e.retweets + eps) / (total.retweets + eps)));
  }
  std::vector<Expert> ranked;
  if (users.empty()) return ranked;
  auto [ts_mean, ts_sd] = MeanSd(ts);
  auto [mi_mean, mi_sd] = MeanSd(mi);
  auto [ri_mean, ri_sd] = MeanSd(ri);
  auto z = [](double x, double mean, double sd) {
    return sd == 0 ? 0.0 : (x - mean) / sd;
  };
  for (size_t i = 0; i < users.size(); ++i) {
    double score = d.weight_topical_signal * z(ts[i], ts_mean, ts_sd) +
                   d.weight_mention_impact * z(mi[i], mi_mean, mi_sd) +
                   d.weight_retweet_impact * z(ri[i], ri_mean, ri_sd);
    ranked.push_back(Expert{users[i], score});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Expert& a, const Expert& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.user < b.user;
  });
  return ranked;
}

std::string Oracle::Compare(const std::string& query,
                            const std::vector<expert::RankedExpert>& got) const {
  const expert::DetectorOptions& d = options_.detector;
  std::vector<Expert> all = Rank(query);
  std::vector<Expert> want;
  for (const Expert& e : all) {
    if (want.size() >= d.max_experts) break;
    if (e.score >= d.min_z_score) want.push_back(e);
  }
  std::string where = "query \"" + query + "\": ";
  if (got.size() != want.size()) {
    // Only a candidate sitting on the min_z_score boundary may flip.
    size_t n = std::min(got.size(), want.size());
    bool boundary = n < all.size() && Close(all[n].score, d.min_z_score);
    if (!boundary) {
      return where + "got " + std::to_string(got.size()) + " experts, want " +
             std::to_string(want.size());
    }
  }
  size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!Close(got[i].score, want[i].score)) {
      return where + StrFormat("rank %zu score %.17g, want %.17g", i,
                               got[i].score, want[i].score);
    }
    if (got[i].user == want[i].user) continue;
    // A different user is fine only inside a group of equal scores.
    bool tied = false;
    for (const Expert& e : all) {
      if (e.user == got[i].user) {
        tied = Close(e.score, got[i].score);
        break;
      }
    }
    if (!tied) {
      return where + StrFormat("rank %zu user %u, want %u", i, got[i].user,
                               want[i].user);
    }
  }
  return "";
}

}  // namespace esharp::perfbench
