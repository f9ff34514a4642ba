// One protocol node of the §4 "practical protocol": push–pull aggregation
// with exchange atomicity and timeouts, epoch restart/synchronization,
// join gating, and a NEWSCAST view maintained over the same transport.
//
// The only implementation of these rules, and host-agnostic: it owns no
// clock, timer, random stream or transport. Its hosts — proto::World
// (virtual time) and runtime::Executor (real threads) — call cycle(),
// on_message() and expire(), handing in the time, an Rng and an Outbox.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "core/epoch.hpp"
#include "core/update.hpp"
#include "membership/newscast_cache.hpp"
#include "proto/messages.hpp"
#include "sim/event_loop.hpp"

namespace gossip::proto {

/// Which aggregate the swarm computes (§3, §5).
using UpdateKind = core::UpdateKind;

struct ProtocolConfig {
  sim::SimTime cycle_length = 1'000'000;  ///< δ (µs of virtual time)
  std::uint32_t cycles_per_epoch = 30;    ///< γ
  sim::SimTime timeout = 400'000;         ///< exchange timeout (§4.2)
  std::size_t cache_size = 30;            ///< NEWSCAST c
  UpdateKind update = UpdateKind::kAverage;
  /// Refuse incoming pushes while our own exchange is in flight. This is
  /// required for mass conservation (fig. 1 is implicitly atomic per
  /// exchange); turning it off reproduces the naive concurrent reading
  /// and its systematic estimate drift — see the ablation_atomicity
  /// scenario. Leave on outside of ablations.
  bool atomic_exchanges = true;
};

/// What a node did with one delivered message (hosts count these).
enum class Outcome : std::uint8_t {
  kPushServed,    ///< answered with the pre-update estimate, then merged
  kPushRefused,   ///< busy, gated joiner, or older epoch (reply says ours)
  kReplyApplied,  ///< matched our pending exchange and merged
  kReplyVoid,     ///< matched, but a refusal or another epoch's: no merge
  kReplyLate,     ///< matched no pending exchange (timed out, or rolled)
  kNewsServed,    ///< NEWSCAST push answered with our view, then merged
  kNewsMerged,    ///< NEWSCAST reply merged
};

class Node;

/// What a node needs from its host: message delivery and the peer choice.
class Outbox {
public:
  virtual ~Outbox() = default;

  virtual void send(NodeId from, NodeId to, Message message) = 0;

  /// A push refused for exchange atomicity or join gating. The reply
  /// tells the initiator nothing its timeout would not, so the host
  /// chooses: the event world drops it, the executor sends it as a busy
  /// NACK. (Stale-epoch refusals carry news and always go via send().)
  virtual void refuse(NodeId from, NodeId to, Message reply) = 0;

  /// GETNEIGHBOR() of fig. 1 for the aggregation exchange; defaults to a
  /// uniform sample of the node's NEWSCAST view.
  [[nodiscard]] virtual NodeId peer(const Node& node, Rng& rng);
};

class Node {
public:
  /// A founding member.
  Node(NodeId id, double local_value, const ProtocolConfig& config);

  /// A node joining while `contact_epoch` is running: it adopts that
  /// epoch's clock but participates only from the next one (§4.2).
  Node(NodeId id, double local_value, const ProtocolConfig& config,
       std::uint64_t contact_epoch);

  /// Seeds the NEWSCAST view (bootstrap or join copy).
  void bootstrap_view(std::span<const membership::CacheEntry> view);

  /// One δ cycle (fig. 1 active thread): a NEWSCAST push, an aggregation
  /// push while participating and idle, then the epoch clock. `now`
  /// stamps the fresh descriptor. Returns whether a push was sent.
  bool cycle(std::uint64_t now, Rng& rng, Outbox& outbox);

  /// Transport entry point (fig. 1 passive thread and reply handling).
  Outcome on_message(NodeId from, const Message& message, std::uint64_t now,
                     Outbox& outbox);

  /// The §4.2 exchange timeout: abandons the pending exchange, if any.
  /// Returns whether one was pending.
  bool expire();

  /// Mass-preserving drift: moves the local value and, while
  /// participating, the estimate by `delta`.
  void shift(double delta);

  /// Updates the underlying local value; the next epoch re-initializes
  /// from it (this is what makes the protocol adaptive).
  void set_local_value(double value) { local_value_ = value; }

  // ---- observers -------------------------------------------------------

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] double estimate() const { return estimate_; }
  [[nodiscard]] double local_value() const { return local_value_; }
  [[nodiscard]] std::uint64_t epoch() const { return epochs_.epoch(); }
  [[nodiscard]] bool participating() const {
    return gate_.participates_in(epochs_.epoch());
  }
  /// True while an exchange this node initiated awaits its reply.
  [[nodiscard]] bool pending() const { return pending_request_ != 0; }
  /// The peer of the pending exchange; invalid when none.
  [[nodiscard]] NodeId pending_peer() const { return pending_peer_; }
  /// Output of the last completed epoch, if any (§4.1: the estimate is
  /// returned as aggregation output at epoch end).
  [[nodiscard]] std::optional<double> last_report() const {
    return has_report_ ? std::optional<double>(last_report_) : std::nullopt;
  }
  [[nodiscard]] const membership::NewscastCache& view() const {
    return cache_;
  }

private:
  Outcome handle(NodeId from, const AggPush& push, Outbox& outbox);
  Outcome handle(const AggReply& reply);
  void adopt_epoch(std::uint64_t remote_epoch);
  void report();
  void cancel_pending();

  // No padding holes: the executor holds one node per hosted id.
  NodeId id_;
  UpdateKind update_;
  double local_value_;
  double estimate_;
  double last_report_ = 0.0;
  core::EpochMachine epochs_;
  core::JoinGate gate_;
  membership::NewscastCache cache_;
  std::uint32_t next_request_id_ = 1;
  std::uint32_t pending_request_ = 0;  ///< 0: no exchange in flight
  NodeId pending_peer_ = NodeId::invalid();
  bool atomic_exchanges_;
  bool has_report_ = false;
};

}  // namespace gossip::proto
