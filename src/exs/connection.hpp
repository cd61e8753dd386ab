// Connection establishment: the simulated stand-in for the rdma_cm
// listen/connect/accept machinery the real library runs on.
//
// The ConnectionService implements a three-way handshake whose messages
// travel over the fabric's links with real timing:
//
//   REQ  (client -> server)  port, socket type, credit-pool size, and the
//                            client's intermediate-buffer credentials;
//   REP  (server -> client)  the accepting socket's credentials — or a
//                            REJECT when nothing listens on the port or
//                            the socket types mismatch;
//   RTU  (client -> server)  "ready to use": the server side opens.
//
// The client socket becomes usable when REP arrives; the server socket
// when RTU arrives — so, as on real fabrics, the connecting side can send
// immediately after its callback fires and the data cannot outrun the
// server's readiness (in-order delivery behind the RTU).  The queue pairs
// and their pre-posted receive pools are wired when the REQ is accepted,
// which models the endpoints each side prepares before the handshake
// completes.
//
// `Socket::ConnectPair` remains available as the zero-time rendezvous for
// tests that do not care about establishment timing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/fifo.hpp"
#include "exs/socket.hpp"
#include "simnet/fabric.hpp"
#include "verbs/device.hpp"

namespace exs {

class ConnectionService;

/// What the REQ's private data says about the connection beyond its port
/// and type.  A muxed client asks the server to carry the stream over its
/// shared-QP pool under `mux_stream` instead of a dedicated transport; the
/// accept gate either attaches a matching MuxStream or refuses.
struct AcceptMeta {
  bool mux = false;
  std::uint32_t mux_stream = 0;
};

/// A passive endpoint bound to (node, port).  Accepted sockets are handed
/// to the handler once their handshake completes.
class Listener {
 public:
  using AcceptHandler = std::function<void(Socket*)>;
  /// Constructs the passive socket for an incoming REQ — or returns null
  /// to refuse it (the client sees a REJECT).  This is where the engine's
  /// admission control hooks in: under memory pressure it declines the
  /// connection *before* any resources are committed, instead of letting
  /// an accepted socket starve the shared pools.
  using AcceptGate = std::function<std::unique_ptr<Socket>(
      verbs::Device& device, SocketType type, const StreamOptions& options,
      const std::string& name, const AcceptMeta& meta)>;

  void SetAcceptHandler(AcceptHandler handler) {
    handler_ = std::move(handler);
    DrainBacklog();
  }

  /// Install an admission gate; null restores the default construction.
  void SetAcceptGate(AcceptGate gate) { gate_ = std::move(gate); }

  std::uint16_t port() const { return port_; }
  std::size_t node_index() const { return node_index_; }
  std::size_t AcceptedCount() const { return accepted_count_; }
  std::size_t RefusedCount() const { return refused_count_; }

 private:
  friend class ConnectionService;
  Listener(std::size_t node_index, std::uint16_t port, SocketType type,
           StreamOptions options)
      : node_index_(node_index), port_(port), type_(type),
        options_(std::move(options)) {}

  void Deliver(Socket* socket) {
    ++accepted_count_;
    if (handler_) {
      handler_(socket);
    } else {
      backlog_.push_back(socket);
    }
  }
  void DrainBacklog() {
    while (handler_ && !backlog_.empty()) {
      Socket* s = backlog_.front();
      backlog_.pop_front();
      handler_(s);
    }
  }

  std::size_t node_index_;
  std::uint16_t port_;
  SocketType type_;
  StreamOptions options_;
  AcceptHandler handler_;
  AcceptGate gate_;
  Fifo<Socket*> backlog_;
  std::size_t accepted_count_ = 0;
  std::size_t refused_count_ = 0;
};

class ConnectionService {
 public:
  /// One service per testbed; `devices` are the per-node verbs devices.
  ConnectionService(simnet::Fabric& fabric, verbs::Device& device0,
                    verbs::Device& device1);

  ConnectionService(const ConnectionService&) = delete;
  ConnectionService& operator=(const ConnectionService&) = delete;

  /// Bind a listener at (node, port).  Throws if the port is taken.
  Listener* Listen(std::size_t node_index, std::uint16_t port,
                   SocketType type, StreamOptions options = StreamOptions{});

  /// Asynchronously connect from `node_index` to the peer node's `port`.
  /// The callback receives the connected socket, or nullptr on rejection.
  /// The socket object exists immediately (so the caller may keep the
  /// pointer) but refuses I/O until the handshake completes.
  Socket* Connect(std::size_t node_index, std::uint16_t port,
                  SocketType type, StreamOptions options,
                  std::function<void(Socket*)> on_complete);

  /// As above, but the client socket is built with pre-provisioned wiring.
  /// When the wiring carries a MuxStream the REQ advertises the stream id
  /// so the server's accept gate can attach the matching stream from its
  /// own shared-QP pool (the two MuxGroups must already be connected —
  /// that is the point: the queue pairs are established once, then every
  /// handshake rides them).
  Socket* Connect(std::size_t node_index, std::uint16_t port,
                  SocketType type, StreamOptions options,
                  SocketWiring wiring,
                  std::function<void(Socket*)> on_complete);

  std::size_t ActiveHandshakes() const { return pending_.size(); }

 private:
  struct Pending {
    std::uint64_t id;
    std::unique_ptr<Socket> socket;
    SocketType type;
    std::function<void(Socket*)> on_complete;
  };
  struct ServerPending {
    std::uint64_t id;
    std::unique_ptr<Socket> socket;
    Listener* listener;
  };

  /// Wire-level handshake message (what rdma_cm carries as MAD private
  /// data); ~64 bytes on the wire.
  struct HandshakeMessage {
    enum class Kind : std::uint8_t { kReq, kRep, kReject, kRtu };
    Kind kind = Kind::kReq;
    std::uint64_t id = 0;
    std::uint16_t port = 0;
    SocketType type = SocketType::kStream;
    /// REQ: client asks for shared-QP multiplexing under this stream id.
    /// Fits the private data — two bytes of flag + id in the real MAD.
    bool mux = false;
    std::uint32_t mux_stream = 0;
    Socket::RingCredentials ring;
  };
  static constexpr std::uint64_t kHandshakeWireBytes = 64;

  void Transmit(std::size_t from_node, const HandshakeMessage& msg);
  void OnMessage(std::size_t at_node, const HandshakeMessage& msg);
  void HandleReq(std::size_t at_node, const HandshakeMessage& msg);
  void HandleRepOrReject(const HandshakeMessage& msg);
  void HandleRtu(const HandshakeMessage& msg);

  verbs::Device& device(std::size_t node) {
    return node == 0 ? *device0_ : *device1_;
  }

  simnet::Fabric* fabric_;
  verbs::Device* device0_;
  verbs::Device* device1_;
  std::map<std::pair<std::size_t, std::uint16_t>,
           std::unique_ptr<Listener>> listeners_;
  std::map<std::uint64_t, Pending> pending_;
  std::map<std::uint64_t, ServerPending> server_pending_;
  std::vector<std::unique_ptr<Socket>> established_;
  std::uint64_t next_id_ = 1;
};

}  // namespace exs
