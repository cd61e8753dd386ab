// Deterministic pins for the trickiest byte-accounting paths: one receive
// filled by both transfer kinds, and ADVERTs that cover only the remainder
// of a partially buffered receive.
#include <gtest/gtest.h>

#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "exs/invariant_checker.hpp"

namespace exs {
namespace {

using simnet::HardwareProfile;

class StreamEdgeTest : public ::testing::Test {
 protected:
  Simulation sim_{HardwareProfile::FdrInfiniBand(), /*seed=*/41,
                  /*carry_payload=*/true};
};

// A WAITALL receive is advertised and half-filled by a direct transfer;
// the sender then races ahead (its remaining data goes indirect because
// the ADVERT was already consumed... held), and the *same* receive must be
// completed by buffer copies continuing at the right offset.
TEST_F(StreamEdgeTest, WaitallRecvFilledDirectThenIndirect) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  constexpr std::uint64_t kLen = 32 * 1024;
  std::vector<std::uint8_t> out(2 * kLen), in(2 * kLen);
  FillPattern(out.data(), out.size(), 0, 1);

  // Advertise the WAITALL receive and half-fill it directly.
  server->Recv(in.data(), kLen, RecvFlags{.waitall = true});
  sim_.RunFor(Microseconds(20));
  client->Send(out.data(), kLen / 2);
  sim_.Run();
  ASSERT_EQ(server->stats().recvs_completed, 0u);
  ASSERT_EQ(client->stats().direct_transfers, 1u);

  // Now force an indirect phase *while the WAITALL ADVERT is still held at
  // the sender's queue head*: a second receive cannot advertise (the
  // WAITALL head is unfinished), so nothing new reaches the sender; but
  // the sender still prefers the held ADVERT.  To genuinely push it
  // indirect we complete the WAITALL remainder and the extra bytes in one
  // oversized send: the first part goes direct into the held ADVERT, the
  // overflow has no ADVERT and goes through the buffer.
  client->Send(out.data() + kLen / 2, kLen / 2 + kLen);
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(server->stats().recvs_completed, 1u);  // WAITALL full, direct
  EXPECT_GE(client->stats().indirect_transfers, 1u);  // overflow buffered

  // The buffered overflow lands in the next receive at the right offset.
  server->Recv(in.data() + kLen, kLen, RecvFlags{.waitall = true});
  sim_.Run();
  EXPECT_EQ(server->stats().recvs_completed, 2u);
  EXPECT_EQ(VerifyPattern(in.data(), 2 * kLen, 0, 1), 2 * kLen);

  auto lemmas = CheckStreamPair(client->tx_trace(), server->rx_trace());
  EXPECT_TRUE(lemmas.ok()) << lemmas.Summary();
}

// A receive that is partially satisfied from the intermediate buffer and
// then advertised must advertise only its *remainder*, and the direct
// transfer must land at the fill offset.
TEST_F(StreamEdgeTest, PartiallyBufferedRecvAdvertisesRemainder) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  constexpr std::uint64_t kLen = 24 * 1024;
  std::vector<std::uint8_t> out(kLen), in(kLen);
  FillPattern(out.data(), out.size(), 0, 2);

  // A third of the data arrives with no receive posted: buffered.
  client->Send(out.data(), kLen / 3);
  sim_.RunFor(Milliseconds(1));

  // The WAITALL receive drains the buffer, then — queue empty, buffer
  // empty — its remaining two thirds are advertised with an exact
  // sequence number.
  server->Recv(in.data(), kLen, RecvFlags{.waitall = true});
  sim_.RunFor(Milliseconds(1));
  EXPECT_EQ(server->stats().recvs_completed, 0u);
  EXPECT_EQ(server->stats().adverts_sent, 1u);
  EXPECT_EQ(server->stats().bytes_copied_out, kLen / 3);

  // The rest flows direct, straight into offset kLen/3.
  client->Send(out.data() + kLen / 3, kLen - kLen / 3);
  sim_.Run();
  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_GE(client->stats().direct_transfers, 1u);
  EXPECT_EQ(VerifyPattern(in.data(), kLen, 0, 2), kLen);
  EXPECT_EQ(server->stream_rx()->sequence(),
            server->stream_rx()->sequence_estimate());
}

// The same remainder-advertising path under MSG_WAITALL=false: the plain
// receive completes short from the buffer, so it is never re-advertised.
TEST_F(StreamEdgeTest, PlainRecvNeverAdvertisesAfterBufferedFill) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> out(8 * 1024), in(32 * 1024);
  FillPattern(out.data(), out.size(), 0, 3);

  client->Send(out.data(), out.size());
  sim_.RunFor(Milliseconds(1));
  server->Recv(in.data(), in.size());  // plain, bigger than the data
  sim_.Run();

  EXPECT_EQ(server->stats().recvs_completed, 1u);
  EXPECT_EQ(server->stats().bytes_received, out.size());
  EXPECT_EQ(server->stats().adverts_sent, 0u);  // satisfied wholly buffered
  EXPECT_EQ(VerifyPattern(in.data(), out.size(), 0, 3), out.size());
}

// A zero-length send is a no-op on the wire but not to the caller: it
// completes immediately with zero bytes, leaves a trace event, and does
// not disturb the surrounding stream.
TEST_F(StreamEdgeTest, ZeroLengthSendCompletesImmediately) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  client->EnableTracing();
  server->EnableTracing();
  std::vector<std::uint8_t> out(1024), in(1024);
  FillPattern(out.data(), out.size(), 0, 4);

  std::vector<Event> completions;
  client->events().SetHandler(
      [&](const Event& ev) { completions.push_back(ev); });

  std::uint64_t id0 = client->Send(out.data(), 512);
  std::uint64_t id1 = client->Send(out.data(), 0);  // between real sends
  std::uint64_t id2 = client->Send(out.data() + 512, 512);

  server->Recv(in.data(), in.size(), RecvFlags{.waitall = true});
  sim_.Run();
  // The empty send completed without a wire crossing, so its event beat
  // both real sends despite being submitted between them.
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].id, id1);
  EXPECT_EQ(completions[0].type, EventType::kSendComplete);
  EXPECT_EQ(completions[0].bytes, 0u);
  EXPECT_EQ(completions[1].id, id0);
  EXPECT_EQ(completions[2].id, id2);
  EXPECT_EQ(client->stats().sends_completed, 3u);
  EXPECT_EQ(client->stats().bytes_sent, 1024u);
  EXPECT_EQ(VerifyPattern(in.data(), in.size(), 0, 4), in.size());

  std::uint64_t traced = 0;
  for (const auto& ev : client->tx_trace().events()) {
    if (ev.type == TraceEventType::kZeroLengthSend) ++traced;
  }
  EXPECT_EQ(traced, 1u);
  auto lemmas = CheckStreamPair(client->tx_trace(), server->rx_trace());
  EXPECT_TRUE(lemmas.ok()) << lemmas.Summary();
}

// Submitting after Close() is a caller bug and is rejected loudly — for
// every payload size, including zero.
TEST_F(StreamEdgeTest, SendAfterCloseThrows) {
  auto [client, server] = sim_.CreateConnectedPair(SocketType::kStream);
  std::vector<std::uint8_t> out(64);
  client->Close();
  EXPECT_THROW(client->Send(out.data(), out.size()), InvariantViolation);
  EXPECT_THROW(client->Send(out.data(), 0), InvariantViolation);
  sim_.Run();
  EXPECT_TRUE(client->Quiescent());
}

}  // namespace
}  // namespace exs
