#include "proto/world.hpp"

#include <utility>

namespace gossip::proto {

World::World(WorldConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  GOSSIP_REQUIRE(config_.nodes >= 2, "world needs at least two nodes");
  GOSSIP_REQUIRE(config_.latency_lo <= config_.latency_hi,
                 "latency bounds inverted");
  if (!config_.initial_value) {
    const double peak = static_cast<double>(config_.nodes);
    config_.initial_value = [peak](NodeId id) {
      return id.value() == 0 ? peak : 0.0;
    };
  }
  network_ = std::make_unique<net::Network<Message>>(
      loop_,
      std::make_unique<net::UniformLatency>(config_.latency_lo,
                                            config_.latency_hi),
      config_.p_loss, rng_.split());
  network_->attach_trace(&trace_);

  slots_.reserve(config_.nodes);
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    const NodeId id(u);
    add_slot(Node(id, config_.initial_value(id), config_.protocol));
  }
  // Random bootstrap views, as in the cycle driver.
  const std::size_t fill =
      std::min<std::size_t>(config_.protocol.cache_size, config_.nodes - 1);
  std::vector<std::uint64_t> draws(fill);
  std::vector<membership::CacheEntry> view(fill);
  for (std::uint32_t u = 0; u < config_.nodes; ++u) {
    rng_.sample_distinct(config_.nodes - 1, std::span<std::uint64_t>(draws));
    for (std::size_t i = 0; i < fill; ++i) {
      const std::uint64_t raw = draws[i];
      view[i] = membership::CacheEntry{
          NodeId(static_cast<std::uint32_t>(raw >= u ? raw + 1 : raw)), 0};
    }
    slots_[u].node.bootstrap_view(view);
  }
}

void World::add_slot(Node node) {
  const auto u = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(Slot{std::move(node), rng_.split(), {}, 0, 0});
  network_->register_node(NodeId(u),
                          [this, u](NodeId from, const Message& m) {
                            on_message(u, from, m);
                          });
}

void World::start() {
  for (std::uint32_t u = 0; u < slots_.size(); ++u) start(NodeId(u));
}

void World::start(NodeId id) {
  const std::uint32_t u = index(id);
  Slot& s = slots_[u];
  GOSSIP_REQUIRE(s.cycle_task == 0, "node already started");
  const sim::SimTime phase = s.rng.below(config_.protocol.cycle_length);
  s.cycle_task = loop_.schedule_after(phase, [this, u] { on_cycle(u); });
}

void World::run_cycles(double cycles) {
  GOSSIP_REQUIRE(cycles >= 0.0, "cannot run negative cycles");
  const auto span = static_cast<sim::SimTime>(
      cycles * static_cast<double>(config_.protocol.cycle_length));
  loop_.run_until(loop_.now() + span);
}

std::uint32_t World::index(NodeId id) const {
  GOSSIP_REQUIRE(id.is_valid() && id.value() < slots_.size(),
                 "node() id out of range");
  return id.value();
}

void World::settle(Slot& s) {
  if (s.timeout_task != 0 && !s.node.pending()) {
    loop_.cancel(s.timeout_task);
    s.timeout_task = 0;
  }
}

void World::on_cycle(std::uint32_t u) {
  Slot& s = slots_[u];
  s.cycle_task = loop_.schedule_after(config_.protocol.cycle_length,
                                      [this, u] { on_cycle(u); });
  if (s.node.cycle(loop_.now(), s.rng, *this)) {
    ++s.stats.exchanges_initiated;
    s.timeout_task = loop_.schedule_after(config_.protocol.timeout, [this, u] {
      Slot& t = slots_[u];
      t.timeout_task = 0;
      if (t.node.expire()) ++t.stats.timeouts;
    });
  }
  settle(s);
}

void World::on_message(std::uint32_t u, NodeId from, const Message& message) {
  Slot& s = slots_[u];
  const std::uint64_t epoch = s.node.epoch();
  const Outcome outcome = s.node.on_message(from, message, loop_.now(), *this);
  s.stats.pushes_received +=
      outcome == Outcome::kPushServed || outcome == Outcome::kPushRefused;
  s.stats.exchanges_completed += outcome == Outcome::kReplyApplied;
  s.stats.epochs_adopted += s.node.epoch() != epoch;
  settle(s);
}

void World::crash(NodeId id) {
  network_->crash(id);
  Slot& s = slots_[index(id)];
  loop_.cancel(s.cycle_task);
  if (s.timeout_task != 0) loop_.cancel(s.timeout_task);
  s.timeout_task = 0;
}

NodeId World::join(NodeId contact, double local_value) {
  GOSSIP_REQUIRE(alive(contact), "join contact must be alive");
  const NodeId id(size());
  const Node& contact_node = node(contact);
  // §4.2 join: the contact hands over its view (plus itself), and learns
  // about the newcomer.
  std::vector<membership::CacheEntry> view(
      contact_node.view().entries().begin(),
      contact_node.view().entries().end());
  view.push_back(membership::CacheEntry{contact, loop_.now()});
  // The node is built before add_slot() may move the slots.
  add_slot(Node(id, local_value, config_.protocol, contact_node.epoch()));
  slots_.back().node.bootstrap_view(view);
  start(id);
  return id;
}

std::vector<double> World::estimates() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (std::uint32_t u = 0; u < slots_.size(); ++u) {
    const Node& node = slots_[u].node;
    if (network_->alive(NodeId(u)) && node.participating()) {
      out.push_back(node.estimate());
    }
  }
  return out;
}

std::vector<double> World::reports() const {
  std::vector<double> out;
  for (std::uint32_t u = 0; u < slots_.size(); ++u) {
    const auto report = slots_[u].node.last_report();
    if (network_->alive(NodeId(u)) && slots_[u].node.participating() &&
        report) {
      out.push_back(*report);
    }
  }
  return out;
}

}  // namespace gossip::proto
