// Assembles a whole event-driven deployment: loop + lossy/latent network
// + N protocol nodes with bootstrap views. This is the harness the
// integration tests and the event driver use; it plays the role PeerSim's
// event-based mode played for the authors. As proto::Node's virtual-time
// host it keeps each node's Rng, timers and counters, and it drops the
// refusals Outbox::refuse() hands it, so those initiators time out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/trace.hpp"
#include "proto/node.hpp"
#include "sim/event_loop.hpp"
#include "stats/summary.hpp"

namespace gossip::proto {

struct WorldConfig {
  std::uint32_t nodes = 100;
  ProtocolConfig protocol;
  /// Per-message loss probability (fig. 7b's model at the transport).
  double p_loss = 0.0;
  /// One-way latency bounds (uniform). Must stay well under the timeout
  /// for the no-failure regime.
  sim::SimTime latency_lo = 5'000;
  sim::SimTime latency_hi = 50'000;
  std::uint64_t seed = 1;
  /// Initial local value per node; defaults to the peak distribution
  /// (node 0 holds `nodes`, rest 0) whose true average is 1.
  std::function<double(NodeId)> initial_value;
};

/// Per-node protocol counters, for tests and monitoring.
struct NodeStats {
  std::uint64_t exchanges_initiated = 0;
  std::uint64_t exchanges_completed = 0;  ///< active side, reply applied
  std::uint64_t pushes_received = 0;      ///< served or refused
  std::uint64_t timeouts = 0;
  std::uint64_t epochs_adopted = 0;       ///< §4.3 jumps
};

class World final : private Outbox {
public:
  explicit World(WorldConfig config);
  World(const World&) = delete;  // timers and handlers capture `this`
  World& operator=(const World&) = delete;

  /// Starts every node at a random phase.
  void start();

  /// Starts one node at a random phase within the next cycle; a node
  /// started cycles after the rest is a laggard (§4.3).
  void start(NodeId id);

  /// Advances virtual time by `cycles` × δ.
  void run_cycles(double cycles);

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] net::TraceLog& trace() { return trace_; }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] Node& node(NodeId id) { return slots_[index(id)].node; }
  [[nodiscard]] const NodeStats& stats(NodeId id) const {
    return slots_[index(id)].stats;
  }
  [[nodiscard]] bool alive(NodeId id) const {
    return network_->alive(id);
  }

  /// Crashes a node: silences its transport and stops its timers.
  void crash(NodeId id);

  /// Joins a brand-new node through `contact` (§4.2): it copies the
  /// contact's view, learns the current epoch, and participates from the
  /// next one. Returns the new node's id.
  NodeId join(NodeId contact, double local_value);

  /// Estimates of live, epoch-participating nodes.
  [[nodiscard]] std::vector<double> estimates() const;
  [[nodiscard]] stats::Summary estimate_summary() const {
    return stats::summarize(estimates());
  }

  /// Last-epoch reports of live participating nodes (empty until the
  /// first epoch completes).
  [[nodiscard]] std::vector<double> reports() const;

private:
  /// One hosted node and what the world keeps for it.
  struct Slot {
    Node node;
    Rng rng;
    NodeStats stats;
    sim::TaskId cycle_task = 0;
    sim::TaskId timeout_task = 0;  ///< armed while node.pending()
  };

  void send(NodeId from, NodeId to, Message message) override {
    network_->send(from, to, std::move(message));
  }
  void refuse(NodeId, NodeId, Message) override {}
  [[nodiscard]] std::uint32_t index(NodeId id) const;
  void add_slot(Node node);
  void on_cycle(std::uint32_t u);
  void on_message(std::uint32_t u, NodeId from, const Message& message);
  void settle(Slot& s);

  WorldConfig config_;
  Rng rng_;
  sim::EventLoop loop_;
  net::TraceLog trace_;
  std::unique_ptr<net::Network<Message>> network_;
  std::vector<Slot> slots_;
};

}  // namespace gossip::proto
