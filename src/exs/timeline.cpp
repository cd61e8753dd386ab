#include "exs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "exs/types.hpp"

namespace exs {
namespace {

/// One serialized trace event, kept sortable by timestamp.  The sort is
/// stable, so events emitted in order at the same instant (metadata first,
/// then an "E" closing a span before the "B" opening the next) stay in
/// stack-consistent order.
struct Emitted {
  SimTime ts = 0;
  std::string json;
};

std::string FormatTs(SimTime ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", static_cast<double>(ps) / 1e6);
  return buf;
}

std::string PhaseSpanName(std::uint64_t phase) {
  std::string name = "phase ";
  name += std::to_string(phase);
  name += PhaseIsDirect(phase) ? " (direct)" : " (indirect)";
  return name;
}

void EmitMetadata(std::vector<Emitted>& out, const std::string& name,
                  int pid, int tid, const std::string& value) {
  std::string j = "{\"name\":";
  metrics::AppendJsonString(&j, name);
  j += ",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
  if (tid >= 0) j += ",\"tid\":" + std::to_string(tid);
  j += ",\"args\":{\"name\":";
  metrics::AppendJsonString(&j, value);
  j += "}}";
  out.push_back(Emitted{0, std::move(j)});
}

void EmitSpanEdge(std::vector<Emitted>& out, char ph, SimTime ts,
                  const std::string& name, int pid, int tid) {
  std::string j = "{\"name\":";
  metrics::AppendJsonString(&j, name);
  j += ",\"ph\":\"";
  j += ph;
  j += "\",\"ts\":" + FormatTs(ts);
  j += ",\"pid\":" + std::to_string(pid);
  j += ",\"tid\":" + std::to_string(tid) + "}";
  out.push_back(Emitted{ts, std::move(j)});
}

void EmitInstant(std::vector<Emitted>& out, const TraceEvent& e, int pid,
                 int tid) {
  std::string j = "{\"name\":";
  metrics::AppendJsonString(&j, ToString(e.type));
  j += ",\"ph\":\"i\",\"s\":\"t\"";
  j += ",\"ts\":" + FormatTs(e.time);
  j += ",\"pid\":" + std::to_string(pid);
  j += ",\"tid\":" + std::to_string(tid);
  j += ",\"args\":{\"seq\":" + std::to_string(e.seq);
  j += ",\"phase\":" + std::to_string(e.phase);
  j += ",\"len\":" + std::to_string(e.len);
  j += ",\"msg_seq\":" + std::to_string(e.msg_seq);
  j += ",\"msg_phase\":" + std::to_string(e.msg_phase);
  j += "}}";
  out.push_back(Emitted{e.time, std::move(j)});
}

void EmitCounter(std::vector<Emitted>& out, std::string_view name,
                 SimTime ts, double value, int pid) {
  std::string j = "{\"name\":";
  metrics::AppendJsonString(&j, name);
  j += ",\"ph\":\"C\",\"ts\":" + FormatTs(ts);
  j += ",\"pid\":" + std::to_string(pid);
  j += ",\"args\":{\"value\":" + metrics::FormatJsonNumber(value) + "}}";
  out.push_back(Emitted{ts, std::move(j)});
}

/// A complete ("X") slice for one leg of a chunk's journey, tagged with
/// the chunk's provenance so the Perfetto UI shows it on hover.
void EmitChunkSlice(std::vector<Emitted>& out, const std::string& name,
                    SimTime ts, SimDuration dur, int pid, int tid,
                    const spans::ChunkRecord& c) {
  std::string j = "{\"name\":";
  metrics::AppendJsonString(&j, name);
  j += ",\"cat\":\"chunk\",\"ph\":\"X\"";
  j += ",\"ts\":" + FormatTs(ts);
  j += ",\"dur\":" + FormatTs(dur);
  j += ",\"pid\":" + std::to_string(pid);
  j += ",\"tid\":" + std::to_string(tid);
  j += ",\"args\":{\"chunk\":" + std::to_string(c.id);
  j += ",\"len\":" + std::to_string(c.len);
  j += ",\"indirect\":";
  j += c.indirect ? "true" : "false";
  j += ",\"coalesced\":";
  j += c.coalesced ? "true" : "false";
  j += ",\"rail\":" + std::to_string(c.tx_rail);
  j += "}}";
  out.push_back(Emitted{ts, std::move(j)});
}

/// A flow edge: 's' starts the arrow inside the sender-side slice at post
/// time, 'f' lands it inside the receiver-side slice at arrival.  Flows
/// bind by (cat, id); the id is the chunk trace id.
void EmitChunkFlow(std::vector<Emitted>& out, char ph, SimTime ts,
                   std::uint64_t id, int pid, int tid) {
  std::string j = "{\"name\":\"chunk\",\"cat\":\"chunk\",\"ph\":\"";
  j += ph;
  j += "\",\"id\":" + std::to_string(id);
  j += ",\"ts\":" + FormatTs(ts);
  j += ",\"pid\":" + std::to_string(pid);
  j += ",\"tid\":" + std::to_string(tid);
  if (ph == 'f') j += ",\"bp\":\"e\"";
  j += "}";
  out.push_back(Emitted{ts, std::move(j)});
}

/// Chunk slices + flow events for the sources' collector (no-op when the
/// source carries no collector or no endpoint ids).
void EmitChunkSpans(std::vector<Emitted>& out, const TimelineSource& src,
                    int pid) {
  if (src.spans == nullptr) return;
  for (const spans::ChunkRecord& c : src.spans->chunks()) {
    if (!c.delivered()) continue;
    const std::string label = "chunk " + std::to_string(c.id);
    if (src.tx_endpoint != 0 && c.tx_endpoint == src.tx_endpoint) {
      EmitChunkSlice(out, label + " tx", c.t_submit, c.t_post - c.t_submit,
                     pid, /*tid=*/0, c);
      EmitChunkSlice(out, label + " wire", c.t_post, c.t_arrive - c.t_post,
                     pid, /*tid=*/0, c);
      EmitChunkFlow(out, 's', c.t_post, c.id, pid, /*tid=*/0);
    }
    if (src.rx_endpoint != 0 && c.rx_endpoint == src.rx_endpoint) {
      EmitChunkSlice(out, label + " rx", c.t_arrive, c.t_deliver - c.t_arrive,
                     pid, /*tid=*/1, c);
      EmitChunkFlow(out, 'f', c.t_arrive, c.id, pid, /*tid=*/1);
    }
  }
}

bool IsPhaseChange(TraceEventType type) {
  return type == TraceEventType::kSenderPhaseChanged ||
         type == TraceEventType::kReceiverPhaseChanged;
}

/// Render one half's log: phase duration spans plus instants for every
/// non-phase event.  PhaseChanged events carry the *new* phase; the span
/// for the initial phase starts at the first event's timestamp.
void EmitHalf(std::vector<Emitted>& out, const TraceLog& log, int pid,
              int tid) {
  const auto& events = log.events();
  if (events.empty()) return;

  bool span_open = false;
  std::uint64_t span_phase = 0;
  for (const TraceEvent& e : events) {
    if (!span_open) {
      span_phase = e.phase;
      EmitSpanEdge(out, 'B', e.time, PhaseSpanName(span_phase), pid, tid);
      span_open = true;
    }
    if (IsPhaseChange(e.type)) {
      EmitSpanEdge(out, 'E', e.time, PhaseSpanName(span_phase), pid, tid);
      span_phase = e.phase;
      EmitSpanEdge(out, 'B', e.time, PhaseSpanName(span_phase), pid, tid);
      continue;
    }
    EmitInstant(out, e, pid, tid);
  }
  EmitSpanEdge(out, 'E', events.back().time, PhaseSpanName(span_phase), pid,
               tid);
}

}  // namespace

std::string ExportChromeTrace(const std::vector<TimelineSource>& sources) {
  std::vector<Emitted> out;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const TimelineSource& src = sources[i];
    const int pid = static_cast<int>(i) + 1;
    EmitMetadata(out, "process_name", pid, -1, src.process);
    EmitMetadata(out, "thread_name", pid, 0, "tx (outgoing stream)");
    EmitMetadata(out, "thread_name", pid, 1, "rx (incoming stream)");
    if (src.tx != nullptr) EmitHalf(out, *src.tx, pid, /*tid=*/0);
    if (src.rx != nullptr) EmitHalf(out, *src.rx, pid, /*tid=*/1);
    EmitChunkSpans(out, src, pid);
    if (src.registry != nullptr) {
      for (const auto& [name, named] : src.registry->series()) {
        for (const auto& sample : named.instrument->samples()) {
          EmitCounter(out, name, sample.time, sample.value, pid);
        }
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Emitted& a, const Emitted& b) {
                     return a.ts < b.ts;
                   });

  std::string json = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != 0) json += ",\n";
    json += out[i].json;
  }
  json += "],\"displayTimeUnit\":\"ms\"}";
  return json;
}

}  // namespace exs
