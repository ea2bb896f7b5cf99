#include "core/trace.hpp"

#include <utility>

#include "common/error.hpp"

namespace pimcomp {

PipelineEvent PipelineEvent::stage_begin(const StageInfo& info) {
  PipelineEvent event;
  event.kind = Kind::kStageBegin;
  event.name = info.stage;
  event.scenario = info.scenario;
  event.scenario_index = info.scenario_index;
  event.tag = info.tag;
  return event;
}

PipelineEvent PipelineEvent::stage_end(const StageInfo& info) {
  PipelineEvent event;
  event.kind = Kind::kStageEnd;
  event.name = info.stage;
  event.scenario = info.scenario;
  event.scenario_index = info.scenario_index;
  event.seconds = info.seconds;
  event.tag = info.tag;
  return event;
}

namespace {

bool is_cache_event(PipelineEvent::Kind kind) {
  return kind == PipelineEvent::Kind::kCacheHit ||
         kind == PipelineEvent::Kind::kCacheStore;
}

PipelineEvent cache_event_common(PipelineEvent::Kind kind,
                                 const CacheEvent& cache_event) {
  PipelineEvent event;
  event.kind = kind;
  event.name = cache_event.cache;
  event.scenario = cache_event.scenario;
  event.scenario_index = cache_event.scenario_index;
  event.hits = cache_event.hits;
  event.tag = cache_event.tag;
  event.source = cache_event.source;
  return event;
}

}  // namespace

PipelineEvent PipelineEvent::cache_hit(const CacheEvent& cache_event) {
  return cache_event_common(Kind::kCacheHit, cache_event);
}

PipelineEvent PipelineEvent::cache_store(const CacheEvent& cache_event) {
  return cache_event_common(Kind::kCacheStore, cache_event);
}

std::string to_string(PipelineEvent::Kind kind) {
  switch (kind) {
    case PipelineEvent::Kind::kStageBegin: return "stage_begin";
    case PipelineEvent::Kind::kStageEnd: return "stage_end";
    case PipelineEvent::Kind::kCacheHit: return "cache_hit";
    case PipelineEvent::Kind::kCacheStore: return "cache_store";
  }
  return "unknown";
}

PipelineEvent::Kind event_kind_from_string(const std::string& s) {
  if (s == "stage_begin") return PipelineEvent::Kind::kStageBegin;
  if (s == "stage_end") return PipelineEvent::Kind::kStageEnd;
  if (s == "cache_hit") return PipelineEvent::Kind::kCacheHit;
  if (s == "cache_store") return PipelineEvent::Kind::kCacheStore;
  throw ConfigError("unknown pipeline event kind '" + s + "'");
}

Json event_to_json(const PipelineEvent& event) {
  Json json = Json::object();
  json["event"] = to_string(event.kind);
  json[is_cache_event(event.kind) ? "cache" : "stage"] = event.name;
  json["scenario"] = event.scenario;
  json["index"] = event.scenario_index;
  if (event.kind == PipelineEvent::Kind::kStageEnd) {
    json["seconds"] = event.seconds;
  }
  if (is_cache_event(event.kind)) {
    json["hits"] = static_cast<std::int64_t>(event.hits);
    // Tier attribution; absent on events recorded by builds predating the
    // two-tier cache (and on stage events), so readers use get-with-default.
    if (!event.source.empty()) json["source"] = event.source;
  }
  // Untagged events keep the pre-job JSON shape byte for byte.
  if (event.tag != 0) json["job"] = static_cast<std::int64_t>(event.tag);
  return json;
}

PipelineEvent event_from_json(const Json& json) {
  PipelineEvent event;
  event.kind = event_kind_from_string(json.at("event").as_string());
  event.name =
      json.get(is_cache_event(event.kind) ? "cache" : "stage", std::string());
  event.scenario = json.get("scenario", std::string());
  event.scenario_index = json.get("index", -1);
  event.seconds = json.get("seconds", 0.0);
  event.hits = static_cast<std::uint64_t>(
      json.get("hits", static_cast<std::int64_t>(0)));
  event.tag = static_cast<std::uint64_t>(
      json.get("job", static_cast<std::int64_t>(0)));
  event.source = json.get("source", std::string());
  return event;
}

void EventBridge::on_stage_begin(const StageInfo& info) {
  on_event(PipelineEvent::stage_begin(info));
}

void EventBridge::on_stage_end(const StageInfo& info) {
  on_event(PipelineEvent::stage_end(info));
}

void EventBridge::on_cache_hit(const CacheEvent& event) {
  on_event(PipelineEvent::cache_hit(event));
}

void EventBridge::on_cache_store(const CacheEvent& event) {
  on_event(PipelineEvent::cache_store(event));
}

TraceRecorder::TraceRecorder() : start_(std::chrono::steady_clock::now()) {}

void TraceRecorder::on_event(const PipelineEvent& event) {
  events_.push_back(event);
  at_seconds_.push_back(seconds_since(start_));
}

Json TraceRecorder::to_json() const {
  Json events = Json::array();
  for (std::size_t i = 0; i < events_.size(); ++i) {
    Json row = event_to_json(events_[i]);
    row["at_s"] = at_seconds_[i];
    events.push_back(std::move(row));
  }
  Json root = Json::object();
  root["events"] = std::move(events);
  return root;
}

}  // namespace pimcomp
