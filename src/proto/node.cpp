#include "proto/node.hpp"

namespace gossip::proto {

NodeId Outbox::peer(const Node& node, Rng& rng) {
  return node.view().sample(rng);
}

Node::Node(NodeId id, double local_value, const ProtocolConfig& config)
    : id_(id),
      update_(config.update),
      local_value_(local_value),
      estimate_(local_value),
      epochs_(config.cycles_per_epoch),
      cache_(config.cache_size),
      atomic_exchanges_(config.atomic_exchanges) {}

Node::Node(NodeId id, double local_value, const ProtocolConfig& config,
           std::uint64_t contact_epoch)
    : Node(id, local_value, config) {
  if (contact_epoch > 0) epochs_.adopt(contact_epoch);
  gate_ = core::JoinGate::joined_during(contact_epoch);
}

void Node::bootstrap_view(std::span<const membership::CacheEntry> view) {
  cache_.merge(view, membership::CacheEntry{NodeId::invalid(), 0}, id_);
}

void Node::cancel_pending() {
  pending_request_ = 0;
  pending_peer_ = NodeId::invalid();
}

void Node::report() {
  last_report_ = estimate_;
  has_report_ = true;
}

bool Node::cycle(std::uint64_t now, Rng& rng, Outbox& outbox) {
  // NEWSCAST exchange: runs in every cycle regardless of epoch gating —
  // membership is what keeps the overlay repaired (§4.4).
  const NodeId news_peer = cache_.sample(rng);
  if (news_peer.is_valid()) {
    outbox.send(id_, news_peer,
                NewsPush{{cache_.entries().begin(), cache_.entries().end()},
                         membership::CacheEntry{id_, now}});
  }

  // Aggregation exchange (fig. 1 active thread), only while this node
  // participates in the running epoch.
  bool initiated = false;
  if (participating()) {
    const NodeId peer = outbox.peer(*this, rng);
    if (peer.is_valid() && peer != id_ && !pending()) {
      pending_request_ = next_request_id_++;
      if (next_request_id_ == 0) next_request_id_ = 1;  // 0 means none
      pending_peer_ = peer;
      outbox.send(id_, peer,
                  AggPush{epochs_.epoch(), pending_request_, estimate_});
      initiated = true;
    }
  }

  if (epochs_.advance_cycle()) {
    // §4.1: report the estimate as output, re-initialize from the current
    // local value. A still-pending exchange belongs to the finished
    // epoch; its reply will be ignored.
    report();
    estimate_ = local_value_;
    cancel_pending();
  }
  return initiated;
}

bool Node::expire() {
  // §4.2: "If the timeout expires before the message is received, the
  // exchange step is skipped."
  if (!pending()) return false;
  cancel_pending();
  return true;
}

void Node::shift(double delta) {
  local_value_ += delta;
  if (participating()) estimate_ += delta;
}

void Node::adopt_epoch(std::uint64_t remote_epoch) {
  // §4.3: jump to the newer epoch. Preemption *terminates* the epoch we
  // were running, and §4.1 says a terminated epoch returns the current
  // estimate as output — without this, a node that adopted epoch e some
  // cycles late would always be preempted by e+1 before its own γ-count
  // completes, and would never report at all.
  if (participating() && epochs_.cycle_in_epoch() > 0) report();
  epochs_.adopt(remote_epoch);
  estimate_ = local_value_;
  cancel_pending();
}

Outcome Node::on_message(NodeId from, const Message& message,
                         std::uint64_t now, Outbox& outbox) {
  if (const auto* push = std::get_if<AggPush>(&message)) {
    return handle(from, *push, outbox);
  }
  if (const auto* reply = std::get_if<AggReply>(&message)) {
    return handle(*reply);
  }
  if (const auto* push = std::get_if<NewsPush>(&message)) {
    outbox.send(id_, from,
                NewsReply{{cache_.entries().begin(), cache_.entries().end()},
                          membership::CacheEntry{id_, now}});
    cache_.merge(push->entries, push->fresh, id_);
    return Outcome::kNewsServed;
  }
  const auto& reply = std::get<NewsReply>(message);
  cache_.merge(reply.entries, reply.fresh, id_);
  return Outcome::kNewsMerged;
}

Outcome Node::handle(NodeId from, const AggPush& push, Outbox& outbox) {
  const AggReply refusal{epochs_.epoch(), push.request_id, 0.0,
                         /*refused=*/true};
  // A joiner refuses exchanges of the epoch it sits out (§4.2). Exchange
  // atomicity: while our own push is in flight, the estimate is committed
  // to that exchange — serving another exchange against it would
  // double-count mass and break sum conservation (the fig. 1 pseudocode
  // is implicitly atomic per exchange). To the initiator either refusal
  // is a momentary link failure: pure slowdown.
  if (!gate_.participates_in(push.epoch) || (atomic_exchanges_ && pending())) {
    outbox.refuse(id_, from, refusal);
    return Outcome::kPushRefused;
  }
  const auto tag = epochs_.classify(push.epoch);
  if (tag == core::EpochMachine::TagAction::kStale) {
    // Push from an older epoch: tell the sender about ours.
    outbox.send(id_, from, refusal);
    return Outcome::kPushRefused;
  }
  if (tag == core::EpochMachine::TagAction::kAdopt) adopt_epoch(push.epoch);
  // Fig. 1 passive thread: reply with the pre-update state, then update.
  outbox.send(id_, from,
              AggReply{epochs_.epoch(), push.request_id, estimate_,
                       /*refused=*/false});
  estimate_ = core::apply_update(update_, estimate_, push.value);
  return Outcome::kPushServed;
}

Outcome Node::handle(const AggReply& reply) {
  const bool matches = pending() && pending_request_ == reply.request_id;
  // A late reply (after a timeout or an epoch roll) is ignored; a late
  // refusal still carries its sender's epoch.
  if (!matches && !reply.refused) return Outcome::kReplyLate;
  const auto tag = epochs_.classify(reply.epoch);
  if (matches) cancel_pending();
  if (tag == core::EpochMachine::TagAction::kAdopt) adopt_epoch(reply.epoch);
  if (!matches) return Outcome::kReplyLate;
  // A refusal, or a reply from another epoch than ours: exchange is void.
  if (reply.refused || tag != core::EpochMachine::TagAction::kAccept) {
    return Outcome::kReplyVoid;
  }
  estimate_ = core::apply_update(update_, estimate_, reply.value);
  return Outcome::kReplyApplied;
}

}  // namespace gossip::proto
