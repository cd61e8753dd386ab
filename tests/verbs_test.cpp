// The software verbs layer: registration/keys, SEND/RECV channel
// semantics, RDMA WRITE (WITH IMM), RDMA READ, inline data, in-order
// delivery, receiver-not-ready errors, and completion timing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/pattern.hpp"
#include "exs/exs.hpp"
#include "verbs/queue_pair.hpp"

namespace exs::verbs {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest()
      : fabric_(simnet::HardwareProfile::FdrInfiniBand(), 5),
        dev0_(fabric_, 0),
        dev1_(fabric_, 1),
        send_cq0_(dev0_.CreateCompletionQueue()),
        recv_cq0_(dev0_.CreateCompletionQueue()),
        send_cq1_(dev1_.CreateCompletionQueue()),
        recv_cq1_(dev1_.CreateCompletionQueue()),
        qp0_(dev0_, *send_cq0_, *recv_cq0_),
        qp1_(dev1_, *send_cq1_, *recv_cq1_) {
    QueuePair::ConnectPair(qp0_, qp1_);
  }

  static Sge MakeSge(const void* addr, std::uint32_t len, std::uint32_t key) {
    return Sge{reinterpret_cast<std::uint64_t>(addr), len, key};
  }

  simnet::Fabric fabric_;
  Device dev0_, dev1_;
  std::unique_ptr<CompletionQueue> send_cq0_, recv_cq0_, send_cq1_, recv_cq1_;
  QueuePair qp0_, qp1_;
};

TEST_F(VerbsTest, RegistrationProducesDistinctKeys) {
  std::vector<std::uint8_t> buf(128);
  auto mr = dev0_.RegisterMemory(buf.data(), buf.size());
  EXPECT_NE(mr->lkey(), mr->rkey());
  EXPECT_EQ(dev0_.FindByLkey(mr->lkey()), mr.get());
  EXPECT_EQ(dev0_.FindByRkey(mr->rkey()), mr.get());
  EXPECT_TRUE(mr->Covers(reinterpret_cast<std::uint64_t>(buf.data()), 128));
  EXPECT_FALSE(mr->Covers(reinterpret_cast<std::uint64_t>(buf.data()) + 1,
                          128));
  dev0_.DeregisterMemory(mr);
  EXPECT_EQ(dev0_.FindByLkey(mr->lkey()), nullptr);
  EXPECT_TRUE(mr->invalidated());
}

TEST_F(VerbsTest, KeyLookupRejectsStaleUnissuedAndCrossedKeys) {
  std::vector<std::uint8_t> buf(256);
  auto first = dev0_.RegisterMemory(buf.data(), 128);
  auto second = dev0_.RegisterMemory(buf.data() + 128, 128);
  const std::size_t live = dev0_.RegisteredRegionCount();

  // An lkey is never an rkey, and the reverse.
  for (const auto& mr : {first, second}) {
    EXPECT_EQ(dev0_.FindByRkey(mr->lkey()), nullptr);
    EXPECT_EQ(dev0_.FindByLkey(mr->rkey()), nullptr);
  }
  // Keys never issued: zero, just past the last region, the top of the
  // key space.
  const std::uint32_t past = std::max(second->lkey(), second->rkey()) + 1;
  for (std::uint32_t key : {0u, past, past + 1, UINT32_MAX, UINT32_MAX - 1}) {
    EXPECT_EQ(dev0_.FindByLkey(key), nullptr) << key;
    EXPECT_EQ(dev0_.FindByRkey(key), nullptr) << key;
  }

  // A deregistered region's keys find nothing; its neighbour is untouched,
  // and deregistering twice counts once.
  dev0_.DeregisterMemory(first);
  EXPECT_EQ(dev0_.FindByLkey(first->lkey()), nullptr);
  EXPECT_EQ(dev0_.FindByRkey(first->rkey()), nullptr);
  EXPECT_EQ(dev0_.FindByLkey(second->lkey()), second.get());
  EXPECT_EQ(dev0_.FindByRkey(second->rkey()), second.get());
  EXPECT_EQ(dev0_.RegisteredRegionCount(), live - 1);
  dev0_.DeregisterMemory(first);
  EXPECT_EQ(dev0_.RegisteredRegionCount(), live - 1);
}

TEST_F(VerbsTest, SendRecvMovesBytes) {
  std::vector<std::uint8_t> src(1024), dst(1024, 0);
  FillPattern(src.data(), src.size(), 0, 42);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  qp1_.PostRecv({.wr_id = 7, .sge = MakeSge(dst.data(), 1024, dst_mr->lkey())});
  qp0_.PostSend({.wr_id = 9,
                 .opcode = Opcode::kSend,
                 .sge = MakeSge(src.data(), 1024, src_mr->lkey())});
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(recv_cq1_->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 7u);
  EXPECT_EQ(wc.opcode, WcOpcode::kRecv);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(wc.byte_len, 1024u);
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 42), dst.size());

  ASSERT_TRUE(send_cq0_->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 9u);
  EXPECT_EQ(wc.opcode, WcOpcode::kSend);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
}

TEST_F(VerbsTest, RdmaWriteIsInvisibleToReceiverQueue) {
  std::vector<std::uint8_t> src(512), dst(512, 0);
  FillPattern(src.data(), src.size(), 0, 8);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  SendWorkRequest wr;
  wr.wr_id = 1;
  wr.opcode = Opcode::kRdmaWrite;
  wr.sge = MakeSge(src.data(), 512, src_mr->lkey());
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey();
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 8), dst.size());
  WorkCompletion wc;
  EXPECT_FALSE(recv_cq1_->Poll(&wc));  // receiver completely passive
  ASSERT_TRUE(send_cq0_->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
}

TEST_F(VerbsTest, WriteWithImmConsumesRecvAndCarriesImm) {
  std::vector<std::uint8_t> src(256), dst(256, 0), unused(16);
  FillPattern(src.data(), src.size(), 0, 3);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  auto unused_mr = dev1_.RegisterMemory(unused.data(), unused.size());

  qp1_.PostRecv(
      {.wr_id = 5, .sge = MakeSge(unused.data(), 16, unused_mr->lkey())});

  SendWorkRequest wr;
  wr.wr_id = 2;
  wr.opcode = Opcode::kRdmaWriteWithImm;
  wr.sge = MakeSge(src.data(), 256, src_mr->lkey());
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = dst_mr->rkey();
  wr.has_imm = true;
  wr.imm = 0xdeadbeef;
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(recv_cq1_->Poll(&wc));
  EXPECT_EQ(wc.wr_id, 5u);
  EXPECT_EQ(wc.opcode, WcOpcode::kRecvRdmaWithImm);
  EXPECT_TRUE(wc.has_imm);
  EXPECT_EQ(wc.imm, 0xdeadbeefu);
  EXPECT_EQ(wc.byte_len, 256u);
  // Data landed in the RDMA target, not the posted receive buffer.
  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 3), dst.size());
  EXPECT_EQ(qp1_.PostedRecvCount(), 0u);
}

TEST_F(VerbsTest, RdmaReadFetchesRemoteMemory) {
  std::vector<std::uint8_t> remote(2048), local(2048, 0);
  FillPattern(remote.data(), remote.size(), 0, 77);
  auto remote_mr = dev1_.RegisterMemory(remote.data(), remote.size());
  auto local_mr = dev0_.RegisterMemory(local.data(), local.size());

  SendWorkRequest wr;
  wr.wr_id = 3;
  wr.opcode = Opcode::kRdmaRead;
  wr.sge = MakeSge(local.data(), 2048, local_mr->lkey());
  wr.remote_addr = reinterpret_cast<std::uint64_t>(remote.data());
  wr.rkey = remote_mr->rkey();
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(send_cq0_->Poll(&wc));
  EXPECT_EQ(wc.opcode, WcOpcode::kRdmaRead);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(VerifyPattern(local.data(), local.size(), 0, 77), local.size());
}

TEST_F(VerbsTest, InlineSendDoesNotNeedRegistration) {
  std::uint8_t payload[64];
  FillPattern(payload, sizeof(payload), 0, 1);
  std::vector<std::uint8_t> dst(64, 0);
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  qp1_.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 64, dst_mr->lkey())});

  SendWorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.inline_data = true;
  wr.sge = MakeSge(payload, sizeof(payload), /*lkey=*/0);
  qp0_.PostSend(wr);
  // The payload was captured at post time; scribbling on it now is safe.
  std::memset(payload, 0, sizeof(payload));
  fabric_.scheduler().Run();

  EXPECT_EQ(VerifyPattern(dst.data(), dst.size(), 0, 1), dst.size());
}

TEST_F(VerbsTest, OversizeInlineThrows) {
  std::vector<std::uint8_t> payload(dev0_.max_inline() + 1);
  SendWorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.inline_data = true;
  wr.sge = MakeSge(payload.data(),
                   static_cast<std::uint32_t>(payload.size()), 0);
  EXPECT_THROW(qp0_.PostSend(wr), InvariantViolation);
}

TEST_F(VerbsTest, UnregisteredSendThrows) {
  std::vector<std::uint8_t> buf(128);
  SendWorkRequest wr;
  wr.opcode = Opcode::kSend;
  wr.sge = MakeSge(buf.data(), 128, /*bogus lkey=*/4242);
  EXPECT_THROW(qp0_.PostSend(wr), InvariantViolation);
}

TEST_F(VerbsTest, ArrivalWithoutRecvIsRnrError) {
  std::vector<std::uint8_t> src(64);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  qp0_.PostSend({.wr_id = 11,
                 .opcode = Opcode::kSend,
                 .sge = MakeSge(src.data(), 64, src_mr->lkey())});
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(send_cq0_->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kRnrError);
  EXPECT_EQ(qp1_.stats().rnr_errors, 1u);
}

TEST_F(VerbsTest, SendLargerThanRecvBufferIsLengthError) {
  std::vector<std::uint8_t> src(256), dst(64);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  qp1_.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 64, dst_mr->lkey())});
  qp0_.PostSend({.wr_id = 2,
                 .opcode = Opcode::kSend,
                 .sge = MakeSge(src.data(), 256, src_mr->lkey())});
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(recv_cq1_->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kLocalLengthError);
  ASSERT_TRUE(send_cq0_->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kLocalLengthError);
}

TEST_F(VerbsTest, BadRkeyIsRemoteAccessError) {
  std::vector<std::uint8_t> src(64), dst(64);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  SendWorkRequest wr;
  wr.opcode = Opcode::kRdmaWrite;
  wr.sge = MakeSge(src.data(), 64, src_mr->lkey());
  wr.remote_addr = reinterpret_cast<std::uint64_t>(dst.data());
  wr.rkey = 999999;
  qp0_.PostSend(wr);
  fabric_.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(send_cq0_->Poll(&wc));
  EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
}

TEST_F(VerbsTest, DeliveriesStayInOrder) {
  constexpr int kMessages = 64;
  std::vector<std::uint8_t> src(kMessages), dst(kMessages, 0xff);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());
  for (int i = 0; i < kMessages; ++i) {
    src[i] = static_cast<std::uint8_t>(i);
    qp1_.PostRecv({.wr_id = static_cast<std::uint64_t>(i),
                   .sge = MakeSge(dst.data() + i, 1, dst_mr->lkey())});
  }
  for (int i = 0; i < kMessages; ++i) {
    qp0_.PostSend({.wr_id = static_cast<std::uint64_t>(i),
                   .opcode = Opcode::kSend,
                   .sge = MakeSge(src.data() + i, 1, src_mr->lkey())});
  }
  fabric_.scheduler().Run();

  WorkCompletion wc;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(recv_cq1_->Poll(&wc));
    EXPECT_EQ(wc.wr_id, static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(dst[i], static_cast<std::uint8_t>(i));
  }
}

TEST_F(VerbsTest, CompletionHandlerPaysNotificationLatency) {
  std::vector<std::uint8_t> src(64), dst(64);
  auto src_mr = dev0_.RegisterMemory(src.data(), src.size());
  auto dst_mr = dev1_.RegisterMemory(dst.data(), dst.size());

  SimTime handled_at = -1;
  recv_cq1_->SetHandler([&](const WorkCompletion&) {
    handled_at = fabric_.scheduler().Now();
  });
  qp1_.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 64, dst_mr->lkey())});
  qp0_.PostSend({.wr_id = 2,
                 .opcode = Opcode::kSend,
                 .sge = MakeSge(src.data(), 64, src_mr->lkey())});
  fabric_.scheduler().Run();

  const auto& p = fabric_.profile();
  // Arrival + delivery overhead + notify wake-up + per-event CPU, with
  // both the notification delay and the CPU cost subject to their
  // modelled jitter fractions.
  double floor_factor = (1.0 - p.notify_jitter);
  SimTime expected_min =
      p.send_wr_overhead + p.link_bandwidth.TransmissionTime(64) +
      p.propagation + p.recv_delivery_overhead +
      static_cast<SimTime>(
          static_cast<double>(p.completion_notify_delay) * floor_factor) +
      static_cast<SimTime>(static_cast<double>(p.per_event_cpu) *
                           (1.0 - p.cpu_jitter));
  EXPECT_GE(handled_at, expected_min);
  EXPECT_EQ(recv_cq1_->TotalCompletions(), 1u);
}

TEST_F(VerbsTest, WanAckDelaysSendCompletion) {
  // Over the emulated 48 ms RTT path, a send completion waits for the
  // transport ACK: roughly one-way data + one-way ack.
  simnet::Fabric wan(simnet::HardwareProfile::RoCE10GWithDelay(
                         Milliseconds(24)),
                     1);
  Device d0(wan, 0), d1(wan, 1);
  auto scq = d0.CreateCompletionQueue();
  auto rcq0 = d0.CreateCompletionQueue();
  auto scq1 = d1.CreateCompletionQueue();
  auto rcq = d1.CreateCompletionQueue();
  QueuePair q0(d0, *scq, *rcq0), q1(d1, *scq1, *rcq);
  QueuePair::ConnectPair(q0, q1);

  std::vector<std::uint8_t> src(1000), dst(1000);
  auto src_mr = d0.RegisterMemory(src.data(), src.size());
  auto dst_mr = d1.RegisterMemory(dst.data(), dst.size());
  q1.PostRecv({.wr_id = 1, .sge = MakeSge(dst.data(), 1000, dst_mr->lkey())});
  q0.PostSend({.wr_id = 2,
               .opcode = Opcode::kSend,
               .sge = MakeSge(src.data(), 1000, src_mr->lkey())});
  wan.scheduler().Run();

  WorkCompletion wc;
  ASSERT_TRUE(scq->Poll(&wc));
  EXPECT_GE(wan.scheduler().Now(), Milliseconds(48));
}

}  // namespace
}  // namespace exs::verbs
