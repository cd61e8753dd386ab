// Positive and negative coverage of the trace invariant checker: clean
// runs must pass, and every checker rule must fire on a trace that breaks
// it — including end-to-end runs where a test-only sabotage hook disables
// one of the protocol's safety rules and the checker has to notice.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

bool HasViolation(const InvariantReport& report, const std::string& needle) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const std::string& v) {
                       return v.find(needle) != std::string::npos;
                     });
}

TraceEvent Ev(TraceEventType type, std::uint64_t seq, std::uint64_t phase,
              std::uint64_t len, std::uint64_t msg_seq = 0,
              std::uint64_t msg_phase = 0) {
  TraceEvent ev;
  ev.time = Microseconds(1);
  ev.type = type;
  ev.seq = seq;
  ev.phase = phase;
  ev.len = len;
  ev.msg_seq = msg_seq;
  ev.msg_phase = msg_phase;
  return ev;
}

// ---------------------------------------------------------------------------
// Positive coverage: healthy end-to-end runs produce clean reports.
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, CleanStreamRunPasses) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 5, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  FillPattern(out.data(), out.size(), 0, 1);

  client->Send(out.data(), 32 * 1024);  // indirect leg
  sim.RunFor(Microseconds(100));
  server->Recv(in.data(), 32 * 1024, RecvFlags{.waitall = true});
  sim.RunFor(Milliseconds(1));
  server->Recv(in.data() + 32 * 1024, 32 * 1024, RecvFlags{.waitall = true});
  sim.RunFor(Milliseconds(1));
  client->Send(out.data() + 32 * 1024, 32 * 1024);  // direct leg
  sim.Run();

  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.events_checked, 0u);
  EXPECT_EQ(report.dropped_events, 0u);
  EXPECT_NE(report.Summary().find("invariants hold"), std::string::npos);
}

TEST(InvariantCheckerTest, CleanSeqPacketRunPasses) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 6, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kSeqPacket);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(8 * 1024), in(8 * 1024);
  FillPattern(out.data(), out.size(), 0, 2);

  for (int i = 0; i < 4; ++i) {
    server->Recv(in.data() + i * 2048, 2048);
    client->Send(out.data() + i * 2048, 2048);
    sim.RunFor(Microseconds(50));
  }
  sim.Run();

  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 2), in.size());
}

// ---------------------------------------------------------------------------
// Negative coverage, rule by rule, on synthetic traces.
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, NotEnabledIsReported) {
  TraceLog log;  // never enabled
  InvariantReport report = CheckStreamSenderTrace(log);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "tracing was not enabled"));
}

TEST(InvariantCheckerTest, StaleAdvertAcceptanceFires) {
  TraceLog log;
  log.Enable();
  // Sender sits in indirect phase 1; the accepted ADVERT still carries
  // direct phase 0 — exactly the Fig. 8 staleness the filter must stop.
  log.Record(Ev(TraceEventType::kAdvertAccepted, 0, 1, 4096, 0, 0));
  InvariantReport report = CheckStreamSenderTrace(log);
  EXPECT_TRUE(HasViolation(report, "stale ADVERT accepted"));
}

TEST(InvariantCheckerTest, PostedByteGapFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kDirectPosted, 0, 0, 100));
  log.Record(Ev(TraceEventType::kDirectPosted, 150, 0, 10));  // gap of 50
  InvariantReport report = CheckStreamSenderTrace(log);
  EXPECT_TRUE(HasViolation(report, "posted byte sequence not contiguous"));
}

TEST(InvariantCheckerTest, ZeroLengthPostFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kIndirectPosted, 0, 1, 0));
  EXPECT_TRUE(
      HasViolation(CheckStreamSenderTrace(log), "zero-length transfer"));
}

TEST(InvariantCheckerTest, ReceivedByteGapFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kDirectArrived, 100, 0, 100));
  log.Record(Ev(TraceEventType::kDirectArrived, 250, 0, 100));  // gap of 50
  InvariantReport report = CheckStreamReceiverTrace(log);
  EXPECT_TRUE(HasViolation(report, "received byte sequence not contiguous"));
}

TEST(InvariantCheckerTest, RingOverflowFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kIndirectArrived, 0, 1, 300));
  InvariantCheckOptions opts;
  opts.rx_ring_capacity = 256;
  InvariantReport report = CheckStreamReceiverTrace(log, opts);
  EXPECT_TRUE(HasViolation(report, "intermediate buffer overflow"));
}

TEST(InvariantCheckerTest, CopyOutBeyondOccupancyFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kCopyOut, 50, 1, 50));  // nothing buffered
  InvariantReport report = CheckStreamReceiverTrace(log);
  EXPECT_TRUE(HasViolation(report, "copy-out of more bytes"));
}

TEST(InvariantCheckerTest, AdvertWhileBufferedFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kIndirectArrived, 0, 1, 64));
  log.Record(Ev(TraceEventType::kAdvertSent, 0, 2, 4096, 0, 2));
  InvariantReport report = CheckStreamReceiverTrace(log);
  EXPECT_TRUE(HasViolation(report, "Fig. 3 gate violated"));
}

TEST(InvariantCheckerTest, DirectArrivalWhileBufferedFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kIndirectArrived, 0, 1, 64));
  log.Record(Ev(TraceEventType::kDirectArrived, 32, 2, 32));
  InvariantReport report = CheckStreamReceiverTrace(log);
  EXPECT_TRUE(HasViolation(report, "safety theorem violated"));
}

TEST(InvariantCheckerTest, SeqPacketAdvertCounterGapFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kAdvertSent, 0, 0, 2048, 1));
  log.Record(Ev(TraceEventType::kAdvertSent, 0, 0, 2048, 3));  // skipped 2
  InvariantReport report = CheckSeqPacketReceiverTrace(log);
  EXPECT_TRUE(HasViolation(report, "ADVERT counter gap"));
}

TEST(InvariantCheckerTest, SeqPacketRejectsStreamOnlyEvents) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kCopyOut, 64, 0, 64));
  InvariantReport report = CheckSeqPacketReceiverTrace(log);
  EXPECT_TRUE(HasViolation(report, "stream-only event"));
}

TEST(InvariantCheckerTest, SeqPacketRejectsNonzeroPhase) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kDirectPosted, 0, 2, 64));
  InvariantReport report = CheckSeqPacketSenderTrace(log);
  EXPECT_TRUE(HasViolation(report, "nonzero phase"));
}

TEST(InvariantCheckerTest, SeqPacketWrongHalfFires) {
  TraceLog log;
  log.Enable();
  log.Record(Ev(TraceEventType::kDirectArrived, 64, 0, 64));
  InvariantReport report = CheckSeqPacketSenderTrace(log);
  EXPECT_TRUE(HasViolation(report, "wrong connection half"));
}

TEST(InvariantCheckerTest, SeqPacketConservationFires) {
  TraceLog tx, rx;
  tx.Enable();
  rx.Enable();
  tx.Record(Ev(TraceEventType::kAdvertReceived, 0, 0, 2048, 1));
  tx.Record(Ev(TraceEventType::kDirectPosted, 0, 0, 2048));
  tx.Record(Ev(TraceEventType::kDirectPosted, 2048, 0, 2048));
  rx.Record(Ev(TraceEventType::kAdvertSent, 0, 0, 2048, 1));
  rx.Record(Ev(TraceEventType::kDirectArrived, 2048, 0, 2048));
  InvariantReport report = CheckSeqPacketPair(tx, rx);
  EXPECT_TRUE(HasViolation(report, "SEQPACKET message conservation failed"));
  EXPECT_TRUE(HasViolation(report, "SEQPACKET byte conservation failed"));
}

// ---------------------------------------------------------------------------
// Every rule, one row each: a minimal synthetic trace that breaks exactly
// that rule, run through the entry point that owns it.  A rule the checker
// stops enforcing, or a message it rewords, fails its row by name.
// ---------------------------------------------------------------------------

enum class Walk {
  kSender,
  kReceiver,
  kPair,
  kSeqSender,
  kSeqReceiver,
  kSeqPair
};

struct RuleRow {
  const char* name;
  Walk walk;
  std::vector<TraceEvent> tx = {};  ///< sender log (sender, pair walks)
  std::vector<TraceEvent> rx = {};  ///< receiver log (receiver, pair walks)
  const char* expect;          ///< substring of the violation that must fire
  std::uint32_t rails = 1;
  std::uint64_t ring = 0;      ///< InvariantCheckOptions::rx_ring_capacity
  std::size_t capacity = 0;    ///< TraceLog capacity (0 = unbounded)
  bool enabled = true;
};

void PrintTo(const RuleRow& row, std::ostream* os) { *os << row.name; }

InvariantReport Check(const RuleRow& row) {
  TraceLog tx, rx;
  for (TraceLog* log : {&tx, &rx}) {
    if (row.enabled) log->Enable();
    log->SetCapacity(row.capacity);
  }
  for (const TraceEvent& ev : row.tx) tx.Record(ev);
  for (const TraceEvent& ev : row.rx) rx.Record(ev);
  InvariantCheckOptions opts;
  opts.rails = row.rails;
  opts.rx_ring_capacity = row.ring;
  switch (row.walk) {
    case Walk::kSender: return CheckStreamSenderTrace(tx, opts);
    case Walk::kReceiver: return CheckStreamReceiverTrace(rx, opts);
    case Walk::kPair: return CheckStreamPair(tx, rx, opts);
    case Walk::kSeqSender: return CheckSeqPacketSenderTrace(tx, opts);
    case Walk::kSeqReceiver: return CheckSeqPacketReceiverTrace(rx, opts);
    case Walk::kSeqPair: return CheckSeqPacketPair(tx, rx, opts);
  }
  return {};
}

using T = TraceEventType;

const RuleRow kRules[] = {
    // Admission.
    {.name = "not_enabled", .walk = Walk::kSender,
     .expect = "tracing was not enabled", .enabled = false},
    {.name = "truncated", .walk = Walk::kSender,
     .tx = {Ev(T::kDirectPosted, 0, 0, 10), Ev(T::kDirectPosted, 10, 0, 10)},
     .expect = "trace truncated", .capacity = 1},
    // Sender half.
    {.name = "sender_phase_rewind", .walk = Walk::kSender,
     .tx = {Ev(T::kSenderPhaseChanged, 0, 2, 0),
            Ev(T::kSenderPhaseChanged, 0, 1, 0)},
     .expect = "sender phase went backwards"},
    {.name = "sender_phase_rewind_at_resume", .walk = Walk::kSender,
     .tx = {Ev(T::kSenderPhaseChanged, 0, 2, 0), Ev(T::kResumeTx, 0, 0, 0)},
     .expect = "sender phase went backwards at resume"},
    {.name = "sender_seq_rewind", .walk = Walk::kSender,
     .tx = {Ev(T::kAckReceived, 100, 0, 0), Ev(T::kAckReceived, 50, 0, 0)},
     .expect = "sender sequence went backwards"},
    {.name = "lemma1_advert_received", .walk = Walk::kSender,
     .tx = {Ev(T::kAdvertReceived, 0, 0, 4096, 0, 1)},
     .expect = "Lemma 1: ADVERT with indirect phase"},
    {.name = "lemma3_direct_phase_after_indirect", .walk = Walk::kSender,
     .tx = {Ev(T::kIndirectPosted, 0, 1, 100), Ev(T::kAckReceived, 100, 2, 0)},
     .expect = "Lemma 3: direct phase but most recent transfer indirect"},
    {.name = "lemma4_direct_phase_mismatch", .walk = Walk::kSender,
     .tx = {Ev(T::kAdvertAccepted, 0, 2, 4096, 0, 4)},
     .expect = "Lemma 4: accepted ADVERT phase differs from direct sender "
               "phase"},
    {.name = "theorem1_inexact_seq", .walk = Walk::kSender,
     .tx = {Ev(T::kAdvertAccepted, 64, 1, 0, 32, 2)},
     .expect = "Theorem 1: ADVERT ending an indirect phase must carry the "
               "exact sequence number"},
    {.name = "stale_advert_accepted", .walk = Walk::kSender,
     .tx = {Ev(T::kAdvertAccepted, 0, 1, 4096, 0, 0)},
     .expect = "stale ADVERT accepted"},
    {.name = "direct_post_in_indirect_phase", .walk = Walk::kSender,
     .tx = {Ev(T::kDirectPosted, 0, 1, 100)},
     .expect = "direct transfer posted in indirect phase"},
    {.name = "indirect_post_in_direct_phase", .walk = Walk::kSender,
     .tx = {Ev(T::kIndirectPosted, 0, 2, 0)},
     .expect = "indirect transfer posted in direct phase"},
    {.name = "zero_length_post", .walk = Walk::kSender,
     .tx = {Ev(T::kIndirectPosted, 0, 1, 0)},
     .expect = "zero-length transfer posted"},
    {.name = "posted_gap", .walk = Walk::kSender,
     .tx = {Ev(T::kDirectPosted, 0, 0, 100), Ev(T::kDirectPosted, 150, 0, 10)},
     .expect = "posted byte sequence not contiguous"},
    {.name = "stripe_gap_at_posting", .walk = Walk::kSender,
     .tx = {Ev(T::kDirectPosted, 0, 0, 100, 1, 0)},
     .expect = "stripe sequence gap at posting", .rails = 2},
    {.name = "posted_on_missing_rail", .walk = Walk::kSender,
     .tx = {Ev(T::kDirectPosted, 0, 0, 100, 0, 2)},
     .expect = "chunk posted on rail 2 of a 2-rail connection", .rails = 2},
    {.name = "zero_length_staged", .walk = Walk::kSender,
     .tx = {Ev(T::kSendStaged, 0, 0, 0)},
     .expect = "zero-length send staged for coalescing"},
    {.name = "empty_coalesce_flush", .walk = Walk::kSender,
     .tx = {Ev(T::kCoalesceFlushed, 0, 0, 0)},
     .expect = "coalesce flush with no staged bytes"},
    {.name = "coalesce_flush_length", .walk = Walk::kSender,
     .tx = {Ev(T::kSendStaged, 0, 0, 10), Ev(T::kCoalesceFlushed, 0, 0, 20, 1)},
     .expect = "coalesce flush length 20 disagrees"},
    {.name = "coalesce_flush_members", .walk = Walk::kSender,
     .tx = {Ev(T::kSendStaged, 0, 0, 10), Ev(T::kCoalesceFlushed, 0, 0, 10, 2)},
     .expect = "coalesce flush member count 2 disagrees"},
    // Receiver half.
    {.name = "receiver_phase_rewind", .walk = Walk::kReceiver,
     .rx = {Ev(T::kReceiverPhaseChanged, 0, 2, 0),
            Ev(T::kReceiverPhaseChanged, 0, 1, 0)},
     .expect = "receiver phase went backwards"},
    {.name = "receiver_phase_rewind_at_resume", .walk = Walk::kReceiver,
     .rx = {Ev(T::kReceiverPhaseChanged, 0, 2, 0), Ev(T::kResumeRx, 0, 0, 0)},
     .expect = "receiver phase went backwards at resume"},
    {.name = "receiver_seq_rewind", .walk = Walk::kReceiver,
     .rx = {Ev(T::kCopyOut, 100, 0, 0), Ev(T::kCopyOut, 50, 0, 0)},
     .expect = "receiver sequence went backwards"},
    {.name = "receiver_seq_rewind_at_resume", .walk = Walk::kReceiver,
     .rx = {Ev(T::kAckSent, 100, 0, 0), Ev(T::kResumeRx, 50, 0, 0)},
     .expect = "receiver sequence went backwards at resume"},
    {.name = "lemma1_advert_sent", .walk = Walk::kReceiver,
     .rx = {Ev(T::kAdvertSent, 0, 2, 0, 10, 3)},
     .expect = "Lemma 1: ADVERT sent with indirect phase"},
    {.name = "advert_phase_differs_at_send", .walk = Walk::kReceiver,
     .rx = {Ev(T::kAdvertSent, 0, 0, 4096, 1, 2)},
     .expect = "ADVERT phase differs from receiver phase at send"},
    {.name = "lemma2_phase_change_between_indirect", .walk = Walk::kReceiver,
     .rx = {Ev(T::kAdvertSent, 0, 2, 4096, 1, 2),
            Ev(T::kAdvertSent, 0, 4, 4096, 2, 4)},
     .expect = "Lemma 2: ADVERT phase changed without an intervening "
               "indirect transfer"},
    {.name = "advert_seq_not_increasing", .walk = Walk::kReceiver,
     .rx = {Ev(T::kAdvertSent, 0, 0, 4096, 5, 0),
            Ev(T::kAdvertSent, 0, 0, 4096, 5, 0)},
     .expect = "ADVERT sequence numbers not strictly increasing"},
    {.name = "advert_while_buffered", .walk = Walk::kReceiver,
     .rx = {Ev(T::kIndirectArrived, 0, 1, 64),
            Ev(T::kAdvertSent, 0, 2, 4096, 0, 2)},
     .expect = "Fig. 3 gate violated"},
    {.name = "ack_piggybacked_while_buffered", .walk = Walk::kReceiver,
     .rx = {Ev(T::kIndirectArrived, 0, 1, 64),
            Ev(T::kAckPiggybacked, 0, 1, 64)},
     .expect = "ACK piggybacked onto an ADVERT while the intermediate buffer "
               "holds 64 byte(s)"},
    {.name = "indirect_arrival_in_direct_phase", .walk = Walk::kReceiver,
     .rx = {Ev(T::kIndirectArrived, 0, 2, 64)},
     .expect = "indirect arrival left receiver in a direct phase"},
    {.name = "direct_arrival_in_indirect_phase", .walk = Walk::kReceiver,
     .rx = {Ev(T::kDirectArrived, 100, 1, 100)},
     .expect = "direct arrival in an indirect phase"},
    {.name = "direct_arrival_while_buffered", .walk = Walk::kReceiver,
     .rx = {Ev(T::kIndirectArrived, 0, 1, 64),
            Ev(T::kDirectArrived, 32, 2, 32)},
     .expect = "safety theorem violated"},
    {.name = "ring_overflow", .walk = Walk::kReceiver,
     .rx = {Ev(T::kIndirectArrived, 0, 1, 300)},
     .expect = "intermediate buffer overflow", .ring = 256},
    {.name = "copy_out_beyond_occupancy", .walk = Walk::kReceiver,
     .rx = {Ev(T::kCopyOut, 50, 1, 50)},
     .expect = "copy-out of more bytes than the buffer holds"},
    {.name = "zero_length_arrival", .walk = Walk::kReceiver,
     .rx = {Ev(T::kDirectArrived, 0, 0, 0)},
     .expect = "zero-length arrival or copy"},
    {.name = "received_gap", .walk = Walk::kReceiver,
     .rx = {Ev(T::kDirectArrived, 100, 0, 100),
            Ev(T::kDirectArrived, 250, 0, 100)},
     .expect = "received byte sequence not contiguous"},
    {.name = "stripe_reassembly_out_of_order", .walk = Walk::kReceiver,
     .rx = {Ev(T::kDirectArrived, 100, 0, 100, 1, 0)},
     .expect = "stripe reassembly out of order", .rails = 2},
    {.name = "arrived_on_missing_rail", .walk = Walk::kReceiver,
     .rx = {Ev(T::kDirectArrived, 100, 0, 100, 0, 3)},
     .expect = "chunk arrived on rail 3 of a 2-rail connection", .rails = 2},
    // Cross-log rules of a stream pair.
    {.name = "direct_byte_conservation", .walk = Walk::kPair,
     .tx = {Ev(T::kDirectPosted, 0, 0, 100)},
     .expect = "direct byte conservation failed: posted 100, arrived 0"},
    {.name = "indirect_byte_conservation", .walk = Walk::kPair,
     .tx = {Ev(T::kIndirectPosted, 0, 1, 1000)},
     .rx = {Ev(T::kIndirectArrived, 0, 1, 900)},
     .expect = "indirect byte conservation failed: posted 1000, arrived 900"},
    {.name = "rail_delivered_more_than_posted", .walk = Walk::kPair,
     .rx = {Ev(T::kDirectArrived, 100, 0, 100, 0, 1)},
     .expect = "rail 1 delivered 1 chunk(s) but only 0 were posted on it",
     .rails = 2},
    {.name = "rail_chunk_mismatch", .walk = Walk::kPair,
     .tx = {Ev(T::kDirectPosted, 0, 0, 100, 0, 1)},
     .rx = {Ev(T::kDirectArrived, 50, 0, 50, 0, 1)},
     .expect = "rail 1 chunk 0 mismatch", .rails = 2},
    {.name = "ack_conservation", .walk = Walk::kPair,
     .tx = {Ev(T::kAckReceived, 0, 0, 100)},
     .expect = "ACK conservation failed"},
    // SOCK_SEQPACKET (§II-C).
    {.name = "seqpacket_nonzero_phase", .walk = Walk::kSeqSender,
     .tx = {Ev(T::kDirectPosted, 0, 2, 64)},
     .expect = "SEQPACKET event carries a nonzero phase"},
    {.name = "seqpacket_wrong_half", .walk = Walk::kSeqSender,
     .tx = {Ev(T::kDirectArrived, 64, 0, 64)},
     .expect = "event from the wrong connection half"},
    {.name = "seqpacket_stream_only_event", .walk = Walk::kSeqReceiver,
     .rx = {Ev(T::kCopyOut, 64, 0, 64)}, .expect = "stream-only event"},
    {.name = "seqpacket_advert_counter_gap", .walk = Walk::kSeqReceiver,
     .rx = {Ev(T::kAdvertSent, 0, 0, 2048, 1),
            Ev(T::kAdvertSent, 0, 0, 2048, 3)},
     .expect = "ADVERT counter gap"},
    {.name = "seqpacket_posted_gap", .walk = Walk::kSeqSender,
     .tx = {Ev(T::kDirectPosted, 0, 0, 64), Ev(T::kDirectPosted, 100, 0, 64)},
     .expect = "posted byte sequence not contiguous"},
    {.name = "seqpacket_received_gap", .walk = Walk::kSeqReceiver,
     .rx = {Ev(T::kDirectArrived, 64, 0, 64),
            Ev(T::kDirectArrived, 200, 0, 64)},
     .expect = "received byte sequence not contiguous"},
    {.name = "seqpacket_message_conservation", .walk = Walk::kSeqPair,
     .tx = {Ev(T::kDirectPosted, 0, 0, 64)},
     .expect = "SEQPACKET message conservation failed"},
    {.name = "seqpacket_byte_conservation", .walk = Walk::kSeqPair,
     .tx = {Ev(T::kDirectPosted, 0, 0, 64)},
     .rx = {Ev(T::kDirectArrived, 32, 0, 32)},
     .expect = "SEQPACKET byte conservation failed"},
    {.name = "seqpacket_advert_conservation", .walk = Walk::kSeqPair,
     .tx = {Ev(T::kAdvertReceived, 0, 0, 2048, 1)},
     .expect = "SEQPACKET ADVERT conservation failed"},
};

class CheckerRuleTest : public ::testing::TestWithParam<RuleRow> {};

TEST_P(CheckerRuleTest, FiresOnMinimalTrace) {
  InvariantReport report = Check(GetParam());
  EXPECT_TRUE(HasViolation(report, GetParam().expect)) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Rules, CheckerRuleTest, ::testing::ValuesIn(kRules),
    [](const ::testing::TestParamInfo<RuleRow>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Truncation: the TraceLog drop counter must surface as a diagnostic.
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, TruncatedTraceIsRefusedWithDiagnostic) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 9, true);
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing(/*capacity=*/2);  // far too small on purpose
  server->EnableTracing(/*capacity=*/2);
  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  FillPattern(out.data(), out.size(), 0, 3);
  for (int i = 0; i < 4; ++i) {
    server->Recv(in.data() + i * 16 * 1024, 16 * 1024,
                 RecvFlags{.waitall = true});
    sim.RunFor(Microseconds(20));
    client->Send(out.data() + i * 16 * 1024, 16 * 1024);
    sim.RunFor(Microseconds(100));
  }
  sim.Run();

  ASSERT_GT(client->tx_trace().dropped(), 0u);
  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "trace truncated"));
  EXPECT_TRUE(HasViolation(report, "widen the TraceLog capacity"));
  EXPECT_GT(report.dropped_events, 0u);

  // Opting in to partial validation silences the truncation violation.
  InvariantCheckOptions allow;
  allow.allow_truncated = true;
  InvariantReport partial = CheckStreamSenderTrace(client->tx_trace(), allow);
  EXPECT_FALSE(HasViolation(partial, "trace truncated"));
}

// ---------------------------------------------------------------------------
// End-to-end sabotage: disable a protocol safety rule via the test-only
// hooks and prove the checker catches the resulting violation.
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, SabotagedStalenessFilterIsCaught) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 21, true);
  StreamOptions opts;
  opts.sabotage.accept_stale_adverts = true;
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  FillPattern(out.data(), out.size(), 0, 4);

  // The StaleAdvertIsDiscarded race: the receive's ADVERT is in flight
  // when the send goes out, so it arrives stale — and the sabotaged
  // sender accepts it instead of discarding.
  try {
    server->Recv(in.data(), 32 * 1024);
    client->Send(out.data(), 16 * 1024);
    sim.Run();
    client->Send(out.data() + 16 * 1024, 16 * 1024);
    sim.Run();
  } catch (const InvariantViolation&) {
    // Runtime checks downstream of the sabotage may fire first; the trace
    // recorded up to that point is what the checker judges.
  }

  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "stale ADVERT accepted"))
      << report.Summary();
}

TEST(InvariantCheckerTest, SabotagedAdvertGateIsCaught) {
  Simulation sim(HardwareProfile::FdrInfiniBand(), 22, true);
  StreamOptions opts;
  opts.sabotage.advertise_without_gate = true;
  opts.intermediate_buffer_bytes = 32 * 1024;
  auto [client, server] = sim.CreateConnectedPair(SocketType::kStream, opts);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(64 * 1024), in(64 * 1024);
  FillPattern(out.data(), out.size(), 0, 5);

  try {
    // Fill the intermediate buffer first, then post a receive: the
    // sabotaged receiver advertises straight through the Fig. 3 gate.
    client->Send(out.data(), 32 * 1024);
    sim.RunFor(Milliseconds(1));
    server->Recv(in.data(), 8 * 1024);
    sim.RunFor(Microseconds(50));
    client->Send(out.data() + 32 * 1024, 32 * 1024);
    server->Recv(in.data() + 8 * 1024, 56 * 1024, RecvFlags{.waitall = true});
    sim.Run();
  } catch (const InvariantViolation&) {
  }

  InvariantReport report = CheckConnection(*client, *server);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasViolation(report, "Fig. 3 gate violated"))
      << report.Summary();
}

// ---------------------------------------------------------------------------
// Fingerprints: stable for identical traces, sensitive to any field.
// ---------------------------------------------------------------------------

TEST(InvariantCheckerTest, FingerprintIsFieldSensitive) {
  TraceLog a, b;
  a.Enable();
  b.Enable();
  a.Record(Ev(TraceEventType::kDirectPosted, 0, 0, 100));
  b.Record(Ev(TraceEventType::kDirectPosted, 0, 0, 100));
  EXPECT_EQ(TraceFingerprint(a), TraceFingerprint(b));

  b.Record(Ev(TraceEventType::kDirectPosted, 100, 0, 100));
  EXPECT_NE(TraceFingerprint(a), TraceFingerprint(b));

  TraceLog c;
  c.Enable();
  c.Record(Ev(TraceEventType::kDirectPosted, 0, 0, 101));  // len differs
  EXPECT_NE(TraceFingerprint(a), TraceFingerprint(c));
}

}  // namespace
}  // namespace exs
