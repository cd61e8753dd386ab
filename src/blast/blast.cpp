#include "blast/blast.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"
#include "common/output.hpp"
#include "common/pattern.hpp"
#include "common/rng.hpp"

namespace exs::blast {
namespace {

bool CaptureMetrics(const BlastConfig& c) {
  return c.capture_metrics || !c.metrics_json_path.empty();
}

bool CaptureTimeline(const BlastConfig& c) {
  return c.capture_timeline || !c.timeline_json_path.empty();
}

/// Per-run driver: owns the simulation, the socket pair, and the client /
/// server application state machines, which react to completion events the
/// way the real blast tool's event loop does.
class BlastRun {
 public:
  explicit BlastRun(const BlastConfig& config)
      : config_(config),
        sim_(config.profile, config.seed, config.carry_payload) {
    EXS_CHECK_MSG(!config.verify_data || config.carry_payload,
                  "verify_data requires carry_payload");
    EXS_CHECK(config.outstanding_sends > 0 && config.outstanding_recvs > 0);
    EXS_CHECK(config.message_count > 0);

    auto pair = sim_.CreateConnectedPair(config.socket_type, config.stream);
    client_ = pair.first;
    server_ = pair.second;

    if (CaptureTimeline(config_)) {
      // Spans and instants come from the trace logs; cap them so a long
      // blast cannot grow the log without bound (drops are counted).
      client_->EnableTracing(
          static_cast<std::size_t>(config_.trace_event_capacity));
      server_->EnableTracing(
          static_cast<std::size_t>(config_.trace_event_capacity));
    }

    GenerateSizes();
    AllocateBuffers();
    burst_remaining_ = config_.burst_messages;  // first burst starts full
  }

  BlastResult Run() {
    // The server posts its receive window at time zero; the client starts
    // after the configured head start.
    server_->events().SetHandler(
        [this](const Event& ev) { OnServerEvent(ev); });
    client_->events().SetHandler(
        [this](const Event& ev) { OnClientEvent(ev); });

    sim_.scheduler().ScheduleAt(0, [this] { PostInitialRecvs(); });
    sim_.scheduler().ScheduleAfter(config_.client_start_delay,
                                   [this] { StartClient(); });
    sim_.Run();

    EXS_CHECK_MSG(bytes_received_ == total_bytes_,
                  "blast did not deliver every byte (" << bytes_received_
                      << " of " << total_bytes_ << ")");
    return BuildResult();
  }

 private:
  void GenerateSizes() {
    sizes_.reserve(config_.message_count);
    if (config_.fixed_message_bytes != 0) {
      sizes_.assign(config_.message_count, config_.fixed_message_bytes);
    } else {
      Rng rng(config_.seed * 0x51ed2701u + 17);
      ExponentialSizeDistribution dist(config_.exponential_mean_bytes,
                                       config_.max_message_bytes);
      ExponentialSizeDistribution shifted(
          config_.shifted_mean_bytes > 0 ? config_.shifted_mean_bytes
                                         : config_.exponential_mean_bytes,
          config_.max_message_bytes);
      for (std::uint64_t i = 0; i < config_.message_count; ++i) {
        bool use_shifted = config_.shifted_mean_bytes > 0 &&
                           i >= config_.shift_at_message;
        sizes_.push_back(use_shifted ? shifted.Sample(rng)
                                     : dist.Sample(rng));
      }
    }
    total_bytes_ = 0;
    max_size_ = 0;
    for (std::uint64_t s : sizes_) {
      total_bytes_ += s;
      max_size_ = std::max(max_size_, s);
    }
  }

  void AllocateBuffers() {
    send_slab_.resize(static_cast<std::size_t>(config_.outstanding_sends) *
                      max_size_);
    recv_slab_.resize(static_cast<std::size_t>(config_.outstanding_recvs) *
                      config_.recv_buffer_bytes);
    // Register the slabs up front — the explicit-registration, zero-copy
    // usage pattern the ES-API is designed for.
    client_->RegisterMemory(send_slab_.data(), send_slab_.size());
    server_->RegisterMemory(recv_slab_.data(), recv_slab_.size());
    free_send_buffers_.resize(config_.outstanding_sends);
    for (std::uint32_t i = 0; i < config_.outstanding_sends; ++i) {
      free_send_buffers_[i] = i;
    }
  }

  std::uint8_t* SendBuffer(std::uint32_t i) {
    return send_slab_.data() + static_cast<std::size_t>(i) * max_size_;
  }
  std::uint8_t* RecvBuffer(std::uint32_t i) {
    return recv_slab_.data() +
           static_cast<std::size_t>(i) * config_.recv_buffer_bytes;
  }

  void PostInitialRecvs() {
    for (std::uint32_t i = 0; i < config_.outstanding_recvs; ++i) {
      PostRecv(i);
    }
  }

  void PostRecv(std::uint32_t buffer_index) {
    std::uint64_t id =
        server_->Recv(RecvBuffer(buffer_index), config_.recv_buffer_bytes);
    recv_buffer_of_[id] = buffer_index;
  }

  void StartClient() {
    start_time_ = sim_.Now();
    sender_busy_start_ = sim_.fabric().node(0).cpu().BusyTime();
    receiver_busy_start_ = sim_.fabric().node(1).cpu().BusyTime();
    std::uint32_t initial = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        config_.outstanding_sends, config_.message_count));
    for (std::uint32_t i = 0; i < initial; ++i) PostNextSend();
  }

  void PostNextSend() {
    if (next_message_ >= config_.message_count) return;
    // Bursty traffic: pause at burst boundaries and resume after the idle
    // period, refilling the send window.
    if (config_.burst_messages > 0 && burst_remaining_ == 0) {
      if (!burst_resume_scheduled_) {
        burst_resume_scheduled_ = true;
        sim_.scheduler().ScheduleAfter(config_.burst_idle, [this] {
          burst_resume_scheduled_ = false;
          burst_remaining_ = config_.burst_messages;
          std::uint32_t window = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(free_send_buffers_.size(),
                                      config_.message_count - next_message_));
          for (std::uint32_t i = 0; i < window; ++i) PostNextSend();
        });
      }
      return;
    }
    if (config_.burst_messages > 0) --burst_remaining_;
    EXS_CHECK(!free_send_buffers_.empty());
    std::uint32_t buf = free_send_buffers_.back();
    free_send_buffers_.pop_back();

    std::uint64_t size = sizes_[next_message_];
    std::uint8_t* mem = SendBuffer(buf);
    if (config_.verify_data) {
      FillPattern(mem, size, send_stream_offset_, config_.seed);
    }
    send_stream_offset_ += size;
    ++next_message_;

    std::uint64_t id = client_->Send(mem, size);
    send_buffer_of_[id] = buf;
  }

  void OnClientEvent(const Event& ev) {
    EXS_CHECK(ev.type == EventType::kSendComplete);
    auto it = send_buffer_of_.find(ev.id);
    EXS_CHECK(it != send_buffer_of_.end());
    free_send_buffers_.push_back(it->second);
    send_buffer_of_.erase(it);
    ++messages_completed_;
    PostNextSend();
  }

  void OnServerEvent(const Event& ev) {
    EXS_CHECK(ev.type == EventType::kRecvComplete);
    auto it = recv_buffer_of_.find(ev.id);
    EXS_CHECK(it != recv_buffer_of_.end());
    std::uint32_t buf = it->second;
    recv_buffer_of_.erase(it);

    if (config_.verify_data) {
      std::size_t ok = VerifyPattern(RecvBuffer(buf), ev.bytes,
                                     recv_stream_offset_, config_.seed);
      EXS_CHECK_MSG(ok == ev.bytes, "payload mismatch at stream offset "
                                        << recv_stream_offset_ + ok);
    }
    recv_stream_offset_ += ev.bytes;
    bytes_received_ += ev.bytes;

    if (bytes_received_ >= total_bytes_) {
      end_time_ = sim_.Now();
      sender_busy_end_ = sim_.fabric().node(0).cpu().BusyTime();
      receiver_busy_end_ = sim_.fabric().node(1).cpu().BusyTime();
      return;  // done: stop reposting
    }
    PostRecv(buf);
  }

  BlastResult BuildResult() {
    BlastResult r;
    r.bytes_transferred = bytes_received_;
    r.messages_sent = messages_completed_;
    SimDuration elapsed = end_time_ - start_time_;
    r.elapsed_seconds = ToSeconds(elapsed);
    r.throughput_mbps = ThroughputMbps(bytes_received_, elapsed);
    r.time_per_message_us =
        ToMicroseconds(elapsed) / static_cast<double>(config_.message_count);

    // CPU usage over the measurement interval (busy time sampled at the
    // start of the first transfer and at delivery of the last byte).
    r.receiver_cpu_percent =
        100.0 * ToSeconds(receiver_busy_end_ - receiver_busy_start_) /
        ToSeconds(elapsed);
    r.sender_cpu_percent =
        100.0 * ToSeconds(sender_busy_end_ - sender_busy_start_) /
        ToSeconds(elapsed);

    r.client_stats = client_->stats();
    r.server_stats = server_->stats();
    r.direct_transfers = r.client_stats.direct_transfers;
    r.indirect_transfers = r.client_stats.indirect_transfers;
    r.mode_switches = r.client_stats.mode_switches;
    r.direct_ratio = r.client_stats.DirectTransferRatio();
    r.adverts_discarded = r.client_stats.adverts_discarded;
    r.data_verified = config_.verify_data;
    if (CaptureMetrics(config_)) r.metrics_json = sim_.MetricsJson();
    if (CaptureTimeline(config_)) r.timeline_json = sim_.TimelineJson();
    return r;
  }

  BlastConfig config_;
  Simulation sim_;
  Socket* client_ = nullptr;
  Socket* server_ = nullptr;

  std::vector<std::uint64_t> sizes_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t max_size_ = 0;
  std::vector<std::uint8_t> send_slab_;
  std::vector<std::uint8_t> recv_slab_;
  std::vector<std::uint32_t> free_send_buffers_;
  std::unordered_map<std::uint64_t, std::uint32_t> send_buffer_of_;
  std::unordered_map<std::uint64_t, std::uint32_t> recv_buffer_of_;

  std::uint64_t next_message_ = 0;
  std::uint64_t messages_completed_ = 0;
  std::uint64_t burst_remaining_ = 0;
  bool burst_resume_scheduled_ = false;
  std::uint64_t send_stream_offset_ = 0;
  std::uint64_t recv_stream_offset_ = 0;
  std::uint64_t bytes_received_ = 0;
  SimTime start_time_ = 0;
  SimTime end_time_ = 0;
  SimDuration sender_busy_start_ = 0;
  SimDuration sender_busy_end_ = 0;
  SimDuration receiver_busy_start_ = 0;
  SimDuration receiver_busy_end_ = 0;
};

Metric Summarize(const std::vector<double>& samples) {
  RunningStats s = exs::Summarize(samples);
  return Metric{s.Mean(), s.ConfidenceHalfWidth95(), s.Min(), s.Max()};
}

}  // namespace

BlastResult RunBlast(const BlastConfig& config) {
  BlastRun run(config);
  BlastResult result = run.Run();
  WriteOutputOrExit(config.metrics_json_path, result.metrics_json);
  WriteOutputOrExit(config.timeline_json_path, result.timeline_json);
  return result;
}

BlastSummary RunRepeated(const BlastConfig& config, int runs) {
  EXS_CHECK(runs > 0);
  BlastSummary summary;
  std::vector<double> tput, tpm, rcpu, scpu, ratio, switches;
  for (int i = 0; i < runs; ++i) {
    BlastConfig c = config;
    c.seed = config.seed + static_cast<std::uint64_t>(i) * 7919;
    if (i > 0) {
      // Only the first (representative) run captures and writes exporter
      // output; repeats would overwrite the files and slow the sweep.
      c.capture_metrics = false;
      c.capture_timeline = false;
      c.metrics_json_path.clear();
      c.timeline_json_path.clear();
    }
    BlastResult r = RunBlast(c);
    tput.push_back(r.throughput_mbps);
    tpm.push_back(r.time_per_message_us);
    rcpu.push_back(r.receiver_cpu_percent);
    scpu.push_back(r.sender_cpu_percent);
    ratio.push_back(r.direct_ratio);
    switches.push_back(static_cast<double>(r.mode_switches));
    summary.runs.push_back(std::move(r));
  }
  summary.throughput_mbps = Summarize(tput);
  summary.time_per_message_us = Summarize(tpm);
  summary.receiver_cpu_percent = Summarize(rcpu);
  summary.sender_cpu_percent = Summarize(scpu);
  summary.direct_ratio = Summarize(ratio);
  summary.mode_switches = Summarize(switches);
  return summary;
}

}  // namespace exs::blast
