#ifndef PIMCOMP_CORE_TRACE_HPP
#define PIMCOMP_CORE_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/pipeline.hpp"

namespace pimcomp {

/// One PipelineObserver callback reified as data. This is the shared event
/// currency of every observer consumer: the compile server streams these to
/// clients (src/serve/protocol.hpp wraps them with a request id) and the
/// CLI's --trace flag writes them as a JSON timeline — both with the same
/// JSON shape, so a trace file and a server event stream are diffable.
struct PipelineEvent {
  enum class Kind { kStageBegin, kStageEnd, kCacheHit, kCacheStore };

  Kind kind = Kind::kStageBegin;
  std::string name;          ///< stage name (stage events) or cache name
  std::string scenario;      ///< scenario label ("" when single-shot)
  int scenario_index = -1;   ///< position in the session batch
  double seconds = 0.0;      ///< stage duration (kStageEnd only)
  std::uint64_t hits = 0;    ///< session-lifetime hit/store count (cache
                             ///< events only)
  std::uint64_t tag = 0;     ///< job tag (JobOptions::tag; 0 = untagged —
                             ///< serialized as "job" only when set)
  std::string source;        ///< cache tier ("memory"/"disk"; cache events
                             ///< only — serialized as "source" when set)

  static PipelineEvent stage_begin(const StageInfo& info);
  static PipelineEvent stage_end(const StageInfo& info);
  static PipelineEvent cache_hit(const CacheEvent& event);
  static PipelineEvent cache_store(const CacheEvent& event);
};

/// Wire names of the kinds ("stage_begin", "stage_end", "cache_hit",
/// "cache_store").
std::string to_string(PipelineEvent::Kind kind);
PipelineEvent::Kind event_kind_from_string(const std::string& s);

/// JSON shape (the serving protocol's "event" payload and one --trace row):
///   {"event": "stage_end", "stage": "mapping", "scenario": "P=20",
///    "index": 1, "seconds": 0.42}
/// Cache hits/stores carry "cache" instead of "stage" plus a "hits" count
/// and the serving tier as "source".
Json event_to_json(const PipelineEvent& event);
PipelineEvent event_from_json(const Json& json);

/// Bridges the four PipelineObserver callbacks into one on_event() hook, so
/// consumers (socket writers, trace files) handle one reified event instead
/// of four callbacks. on_event runs on the pipeline's thread under the
/// session's observer serialization, exactly like a raw observer.
class EventBridge : public PipelineObserver {
 public:
  void on_stage_begin(const StageInfo& info) final;
  void on_stage_end(const StageInfo& info) final;
  void on_cache_hit(const CacheEvent& event) final;
  void on_cache_store(const CacheEvent& event) final;

  virtual void on_event(const PipelineEvent& event) = 0;
};

/// Collects a timeline of events with wall-clock offsets from construction.
/// Install as a session/compiler observer (local runs) or feed received
/// server events through on_event() (remote runs); to_json() is the --trace
/// file format:
///   {"events": [{"at_s": 0.0012, "event": "stage_begin", ...}, ...]}
class TraceRecorder : public EventBridge {
 public:
  TraceRecorder();

  /// Appends the event, stamped at the current wall-clock offset.
  void on_event(const PipelineEvent& event) override;

  std::size_t size() const { return events_.size(); }
  const std::vector<PipelineEvent>& events() const { return events_; }

  Json to_json() const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::vector<PipelineEvent> events_;
  std::vector<double> at_seconds_;  ///< parallel to events_
};

}  // namespace pimcomp

#endif  // PIMCOMP_CORE_TRACE_HPP
