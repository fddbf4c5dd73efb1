#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "cluster/merge.h"
#include "common/hash.h"
#include "common/strings.h"

namespace esharp::cluster {

namespace {

std::vector<std::string> ShardNames(
    const std::vector<std::unique_ptr<ShardTransport>>& shards) {
  std::vector<std::string> names;
  names.reserve(shards.size());
  for (const auto& shard : shards) names.push_back(shard->name());
  return names;
}

}  // namespace

/// Shared state of one query's gather: co-owned by the router's caller
/// thread and every scatter/hedge/claim task. A shard resolves with its
/// *first* finishing attempt (success or failure); later attempts still
/// feed the health tracker but cannot change the answer.
struct ClusterRouter::GatherState {
  std::string query;
  double deadline_ms = 0;  // client budget; <= 0 none
  Timer timer;             // copies the request's queue timer time base
  /// The query's trace; each attempt serves under a deterministic child.
  obs::TraceContext trace;
  /// Next unclaimed position in the router's claimed_shards_.
  std::atomic<size_t> next_claim{0};

  std::mutex mu;
  std::condition_variable cv;
  std::vector<bool> finished;  // shard resolved (guarded by mu)
  std::vector<bool> hedged;
  std::vector<std::optional<ShardEvidence>> results;
  std::vector<Status> errors;
  size_t resolved = 0;
  /// Child-span index of the next attempt (guarded by mu).
  uint64_t attempt_counter = 0;
  /// Profile lanes in the making: every attempt ever launched per shard,
  /// completed in place when it finishes (guarded by mu). A straggler
  /// finishing after the router harvested still completes its record here
  /// harmlessly — the profile was built from a copy.
  std::vector<std::vector<obs::LaneAttempt>> attempts;

  explicit GatherState(size_t num_shards)
      : finished(num_shards, false),
        hedged(num_shards, false),
        results(num_shards),
        errors(num_shards, Status::OK()),
        attempts(num_shards) {}
};

ClusterRouter::ClusterRouter(
    std::vector<std::unique_ptr<ShardTransport>> shards,
    const expert::ExpertDetector* detector, RouterOptions options)
    : shards_(std::move(shards)),
      detector_(detector),
      options_(std::move(options)),
      owned_pool_(options_.pool == nullptr
                      ? std::make_unique<ThreadPool>(options_.num_threads)
                      : nullptr),
      pool_(options_.pool != nullptr ? options_.pool : owned_pool_.get()),
      health_(ShardNames(shards_),
              ShardHealthTracker::Options{options_.down_threshold,
                                          options_.clock,
                                          options_.on_shard_transition}),
      slow_log_(options_.slow_query_log),
      cache_(options_.cache) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->ReturnsByDeadline()) claimed_shards_.push_back(i);
  }
}

ClusterRouter::~ClusterRouter() {
  // Mirror ServingEngine: drain the owned pool (runs + joins queued
  // attempts and claim helpers), then wait out those queued on an
  // external pool — the outstanding_ decrement is the last router-state
  // access a pool task makes, so zero means no task can still touch
  // shards_ or health_.
  owned_pool_.reset();
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

uint64_t ClusterRouter::ClusterVersion() const {
  uint64_t combined = shards_.size();
  for (const auto& shard : shards_) {
    combined = HashCombine(combined, shard->VersionHint());
  }
  return combined;
}

bool ClusterRouter::TryAdmit() {
  size_t current = in_flight_.load(std::memory_order_relaxed);
  while (current < options_.max_in_flight) {
    if (in_flight_.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel)) {
      return true;
    }
  }
  metrics_.RecordShed();
  return false;
}

Result<ClusterResponse> ClusterRouter::Query(serving::QueryRequest request) {
  if (!TryAdmit()) {
    return Status::Unavailable("router overloaded: ", options_.max_in_flight,
                               " requests in flight");
  }
  Timer queue_timer;
  Result<ClusterResponse> result =
      Execute(request, queue_timer, EffectiveDeadline(request));
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

void ClusterRouter::LaunchAttempt(const std::shared_ptr<GatherState>& state,
                                  size_t index, bool is_hedge) {
  if (is_hedge) health_.RecordHedge(index);
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  pool_->Submit([this, state, index, is_hedge] {
    RunAttempt(*state, index, is_hedge);
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void ClusterRouter::RunClaims(GatherState& state) {
  for (size_t c = state.next_claim.fetch_add(1); c < claimed_shards_.size();
       c = state.next_claim.fetch_add(1)) {
    RunAttempt(state, claimed_shards_[c], /*is_hedge=*/false);
  }
}

void ClusterRouter::RunAttempt(GatherState& state, size_t index,
                               bool is_hedge) {
  ShardRequest shard_request;
  shard_request.query = state.query;
  bool expired = false;
  if (state.deadline_ms > 0) {
    // The shard gets a fraction of what is *left* of the client budget,
    // so queue wait and earlier stages are charged to the same clock
    // and the router keeps headroom for merge + rank.
    double remaining = state.deadline_ms - state.timer.ElapsedMillis();
    if (remaining <= 0) {
      expired = true;
    } else {
      shard_request.deadline_ms = remaining * options_.shard_deadline_fraction;
    }
  }
  // Open this attempt's profile record and mint its child trace context;
  // the record completes in place under the same mutex when the attempt
  // resolves below.
  size_t attempt_slot;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    shard_request.trace = state.trace.Child(state.attempt_counter++);
    obs::LaneAttempt rec;
    rec.hedge = is_hedge;
    rec.start_ms = state.timer.ElapsedMillis();
    rec.deadline_ms = shard_request.deadline_ms;
    state.attempts[index].push_back(std::move(rec));
    attempt_slot = state.attempts[index].size() - 1;
  }
  Timer attempt_timer;
  Result<ShardEvidence> attempt =
      expired ? Result<ShardEvidence>(Status::DeadlineExceeded(
                    "client budget exhausted before shard attempt"))
              : shards_[index]->Collect(shard_request);
  double seconds = attempt_timer.ElapsedSeconds();
  if (attempt.ok()) {
    health_.RecordSuccess(index, seconds,
                          attempt.ValueOrDie().snapshot_version);
  } else {
    health_.RecordFailure(index, seconds, attempt.status());
  }
  {
    std::lock_guard<std::mutex> lock(state.mu);
    obs::LaneAttempt& rec = state.attempts[index][attempt_slot];
    rec.dur_ms = seconds * 1e3;
    if (attempt.ok()) {
      const ShardEvidence& evidence = attempt.ValueOrDie();
      rec.outcome = "ok";
      rec.candidates = evidence.evidence.size();
      // The breakdown is trustworthy when the shard echoed our trace
      // (in-process always does; over HTTP it proves the profile line
      // belongs to this attempt, not a stale or garbled response).
      rec.has_breakdown = evidence.trace.SameTrace(shard_request.trace);
      rec.queue_ms = evidence.queue_ms;
      rec.expand_ms = evidence.expand_ms;
      rec.detect_ms = evidence.detect_ms;
    } else {
      rec.outcome = "error";
      rec.detail = attempt.status().ToString();
    }
    if (!state.finished[index]) {
      state.finished[index] = true;
      if (attempt.ok()) {
        rec.won = true;  // first finisher's evidence is the one used
        state.results[index] = attempt.MoveValueUnsafe();
      } else {
        state.errors[index] = attempt.status();
      }
      ++state.resolved;
    }
  }
  state.cv.notify_all();
}

Result<ClusterResponse> ClusterRouter::Execute(
    const serving::QueryRequest& request, const Timer& queue_timer,
    double deadline_ms) {
  if (request.query.empty()) {
    metrics_.RecordError();
    return Status::InvalidArgument("empty query");
  }
  if (shards_.empty()) {
    metrics_.RecordError();
    return Status::FailedPrecondition("router has no shards");
  }
  const size_t n = shards_.size();

  // Every routed query serves under one 128-bit trace id: the caller's
  // when it brought a valid context, a fresh root otherwise. Attempts get
  // deterministic children of it, and the shards' own spans adopt it.
  // Router-minted roots are head-sampled (trace_sample_period); only
  // sampled requests touch the span ring, so tracing stays off the
  // cache-hit fast path under load.
  obs::TraceContext trace_ctx;
  if (request.trace.valid()) {
    trace_ctx = request.trace;
  } else {
    const uint64_t period = options_.trace_sample_period;
    bool sampled =
        period == 1 ||
        (period > 0 &&
         trace_counter_.fetch_add(1, std::memory_order_relaxed) % period ==
             0);
    trace_ctx = obs::TraceContext::NewRoot(sampled);
  }
  [[maybe_unused]] obs::Tracer* tracer =
      trace_ctx.sampled ? options_.tracer : nullptr;

  ESHARP_SPAN(request_span, tracer, "cluster_request", nullptr);
  request_span.SetTrace(trace_ctx.trace_hi, trace_ctx.trace_lo);
  ESHARP_SPAN_ANNOTATE(request_span, "trace", trace_ctx.TraceIdHex());
  ESHARP_SPAN_ANNOTATE(request_span, "shards", static_cast<int64_t>(n));

  ClusterResponse response;
  response.trace = trace_ctx;
  response.shards_total = n;
  response.cluster_version = ClusterVersion();

  const std::string key = ToLowerAscii(request.query);
  const bool use_cache = options_.enable_cache && !request.bypass_cache;
  if (use_cache) {
    std::optional<serving::CachedResult> hit =
        cache_.Get(key, clock_.ElapsedSeconds(), response.cluster_version);
    if (hit.has_value()) {
      response.experts = std::move(hit->experts);
      response.from_cache = true;
      response.shards_answered = n;
      response.total_ms = queue_timer.ElapsedMillis();
      ESHARP_SPAN_ANNOTATE(request_span, "outcome", "cache_hit");
      metrics_.RecordRequest(queue_timer.ElapsedSeconds(), {},
                             /*cache_hit=*/true, /*deduplicated=*/false);
      return response;
    }
  }

  // Scatter.
  const double scatter_start_ms = queue_timer.ElapsedMillis();
  ESHARP_SPAN(gather_span, tracer, "gather", &request_span);
  auto state = std::make_shared<GatherState>(n);
  state->query = request.query;
  state->deadline_ms = deadline_ms;
  state->timer = queue_timer;
  state->trace = trace_ctx;
  for (size_t i = 0; i < n; ++i) {
    if (!shards_[i]->ReturnsByDeadline()) {
      LaunchAttempt(state, i, /*is_hedge=*/false);
    }
  }
  // Help-first over the shards that return by their deadline: this thread
  // claims their attempts too, so progress never waits on pool capacity;
  // a helper that dequeues after the claims ran out finds nothing to do.
  // The gather below then waits only for attempts still running elsewhere.
  if (!claimed_shards_.empty()) {
    const size_t helpers =
        std::min(claimed_shards_.size() - 1, pool_->num_threads());
    for (size_t h = 0; h < helpers; ++h) {
      outstanding_.fetch_add(1, std::memory_order_acq_rel);
      pool_->Submit([this, state] {
        RunClaims(*state);
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
    RunClaims(*state);
  }

  // Gather. The hedge trigger arms only after warmup samples exist, and
  // only when some shard is pooled (claimed shards are never hedged); its
  // delay is measured from this request's submission, so "late" means
  // late relative to what the cluster recently served.
  double hedge_delay_ms = -1;
  if (options_.enable_hedging && claimed_shards_.size() < n &&
      health_.total_samples() >= options_.hedge_warmup) {
    hedge_delay_ms =
        std::max(options_.hedge_min_ms,
                 health_.LatencyPercentileMs(options_.hedge_percentile) *
                     options_.hedge_factor);
  }
  size_t hedges_fired = 0;
  bool deadline_hit = false;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    for (;;) {
      if (state->resolved == n) break;
      double elapsed = state->timer.ElapsedMillis();
      if (deadline_ms > 0 && elapsed >= deadline_ms) {
        deadline_hit = true;
        break;
      }
      if (hedge_delay_ms >= 0 && elapsed >= hedge_delay_ms) {
        for (size_t i = 0; i < n; ++i) {
          // A claimed attempt is never queued behind anything: a second
          // one would only be another call into the same engine.
          if (!state->finished[i] && !state->hedged[i] &&
              !shards_[i]->ReturnsByDeadline()) {
            state->hedged[i] = true;
            ++hedges_fired;
            // Submitting under state->mu is safe: pool workers take the
            // pool mutex only before running a task, never while holding
            // state->mu, so there is no lock cycle.
            LaunchAttempt(state, i, /*is_hedge=*/true);
          }
        }
        hedge_delay_ms = -1;  // at most one hedge wave per request
        continue;
      }
      // Next timed event: the deadline and/or the hedge trigger; plain
      // wait when neither is pending (every attempt resolves eventually).
      double next_ms = -1;
      if (deadline_ms > 0) next_ms = deadline_ms - elapsed;
      if (hedge_delay_ms >= 0) {
        double until_hedge = hedge_delay_ms - elapsed;
        next_ms = next_ms < 0 ? until_hedge : std::min(next_ms, until_hedge);
      }
      if (next_ms < 0) {
        state->cv.wait(lock);
      } else {
        state->cv.wait_for(
            lock, std::chrono::duration<double, std::milli>(next_ms));
      }
    }
  }

  // Harvest under the lock; the shared_ptr keeps GatherState alive for
  // any straggler attempt, but `pools` borrows from it, so hold the state
  // until the merge below is done (we do — `state` outlives this scope).
  std::vector<const std::vector<expert::CandidateEvidence>*> pools(n, nullptr);
  size_t answered = 0;
  bool any_shard_timeout = false;
  Status first_error = Status::OK();
  std::vector<std::vector<obs::LaneAttempt>> lane_attempts;
  std::vector<std::string> lane_annotations(n);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (size_t i = 0; i < n; ++i) {
      if (state->finished[i] && state->results[i].has_value()) {
        pools[i] = &state->results[i]->evidence;
        ++answered;
      } else if (state->finished[i]) {
        if (state->errors[i].IsDeadlineExceeded()) any_shard_timeout = true;
        if (first_error.ok()) first_error = state->errors[i];
        lane_annotations[i] = "failed: " + state->errors[i].ToString();
      } else {
        any_shard_timeout = true;  // still out when the budget expired
        lane_annotations[i] = "no answer before deadline";
      }
    }
    // Snapshot the attempt records for the profile while stragglers may
    // still be completing theirs in place.
    lane_attempts = state->attempts;
  }
  gather_span.End();
  ESHARP_SPAN_ANNOTATE(request_span, "answered",
                       static_cast<int64_t>(answered));
  ESHARP_SPAN_ANNOTATE(request_span, "hedges",
                       static_cast<int64_t>(hedges_fired));
  double gather_ms = queue_timer.ElapsedMillis();
  response.shards_answered = answered;
  response.hedges_fired = hedges_fired;
  response.degraded = answered < n;

  // Stitch and retain this query's profile: the router's stages plus one
  // lane per shard, with every attempt's outcome. Runs on every
  // post-scatter exit, so a timed-out or failed query still leaves a
  // complete, inspectable picture in /queryz — those are exactly the
  // queries worth debugging.
  auto record_profile = [&](const char* outcome) {
    if (!options_.enable_profiles) return;
    auto profile = std::make_shared<obs::QueryProfile>();
    profile->trace = trace_ctx;
    profile->query = request.query;
    profile->outcome = outcome;
    profile->total_ms = queue_timer.ElapsedMillis();
    profile->merge_ms = response.merge_ms;
    profile->deadline_ms = deadline_ms > 0 ? deadline_ms : 0;
    profile->shards_total = n;
    profile->shards_answered = answered;
    profile->hedges_fired = hedges_fired;
    profile->degraded = response.degraded;
    profile->recorded_at_seconds = obs::NowSeconds();
    profile->stages.push_back(
        {"gather", scatter_start_ms, gather_ms - scatter_start_ms});
    if (response.merge_ms > 0) {
      profile->stages.push_back({"merge_rank", gather_ms, response.merge_ms});
    }
    profile->lanes.resize(n);
    for (size_t i = 0; i < n; ++i) {
      profile->lanes[i].name = shards_[i]->name();
      profile->lanes[i].annotation = lane_annotations[i];
      profile->lanes[i].attempts = std::move(lane_attempts[i]);
    }
    slow_log_.Record(std::move(profile));
  };

  if (answered == 0 || answered < options_.min_shards_answered) {
    if (deadline_hit || any_shard_timeout) {
      metrics_.RecordTimeout();
      ESHARP_SPAN_ANNOTATE(request_span, "outcome", "timeout");
      record_profile("timeout");
      return Status::DeadlineExceeded(
          "only ", answered, " of ", n, " shards answered within ",
          deadline_ms, " ms (need ",
          std::max<size_t>(options_.min_shards_answered, 1), ")");
    }
    metrics_.RecordError();
    ESHARP_SPAN_ANNOTATE(request_span, "outcome", "error");
    record_profile("error");
    if (!first_error.ok()) return first_error;
    return Status::Unavailable("no shard answered");
  }

  // Merge + the single cluster-level rank step (see cluster/merge.h for
  // why this reproduces the unsharded ranking bit for bit).
  Timer merge_timer;
  ESHARP_SPAN(rank_span, tracer, "merge_rank", &request_span);
  // Keep the loaded override alive across the whole rank step: a concurrent
  // SetUnionDetector must not reclaim the detector mid-merge.
  std::shared_ptr<const expert::ExpertDetector> override_detector =
      detector_override_.load(std::memory_order_acquire);
  Result<std::vector<expert::RankedExpert>> ranked = MergeAndRank(
      override_detector != nullptr ? *override_detector : *detector_, pools);
  rank_span.End();
  if (!ranked.ok()) {
    metrics_.RecordError();
    ESHARP_SPAN_ANNOTATE(request_span, "outcome", "error");
    record_profile("error");
    return ranked.status();
  }
  response.experts = ranked.MoveValueUnsafe();
  response.merge_ms = merge_timer.ElapsedMillis();
  response.total_ms = queue_timer.ElapsedMillis();

  // Complete answers only: a degraded answer is correct for the shards
  // that spoke but must not outlive the outage in the cache.
  if (use_cache && !response.degraded) {
    cache_.Put(key,
               serving::CachedResult{response.experts,
                                     response.cluster_version},
               clock_.ElapsedSeconds());
  }
  serving::StageTimings stages;
  stages.detect_ms = gather_ms;
  stages.rank_ms = response.merge_ms;
  // The trace id rides the latency histogram as an exemplar, so a p99
  // bucket in /varz points straight at a retained /queryz profile.
  metrics_.RecordRequest(queue_timer.ElapsedSeconds(), stages,
                         /*cache_hit=*/false, /*deduplicated=*/false,
                         trace_ctx.TraceIdHex());
  ESHARP_SPAN_ANNOTATE(request_span, "outcome",
                       response.degraded ? "degraded" : "ok");
  record_profile(response.degraded ? "degraded" : "ok");
  return response;
}

}  // namespace esharp::cluster
