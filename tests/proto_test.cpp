// Tests for src/proto: the node's refusal, epoch and reply rules driven
// directly through a fake outbox, and the event-driven "practical
// protocol" of §4 — convergence under real delays, timeouts against
// crashed peers, epoch restart and epidemic epoch synchronization, join
// gating, the 1+Poisson(1) exchange distribution, and agreement with the
// cycle driver's convergence factor.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <vector>

#include "common/require.hpp"
#include "proto/node.hpp"
#include "proto/world.hpp"
#include "stats/running_stats.hpp"
#include "theory/predictions.hpp"

namespace gossip::proto {
namespace {

/// Records what a node hands its host, delivering nothing.
struct FakeOutbox final : Outbox {
  struct Sent {
    NodeId from, to;
    Message message;
    bool refusal;  ///< went through refuse() rather than send()
  };
  std::vector<Sent> sent;

  void send(NodeId from, NodeId to, Message message) override {
    sent.push_back({from, to, std::move(message), false});
  }
  void refuse(NodeId from, NodeId to, Message reply) override {
    sent.push_back({from, to, std::move(reply), true});
  }
  /// The request id of the last aggregation push sent.
  [[nodiscard]] std::uint64_t last_request() const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (const auto* push = std::get_if<AggPush>(&it->message)) {
        return push->request_id;
      }
    }
    ADD_FAILURE() << "no push was sent";
    return 0;
  }
};

// The per-node rules, one input at a time. Node 0 holds 4.0 and knows
// peer 1; the input arrives from node 2 (pushes) or node 1 (replies).
TEST(ProtoNode, RefusalEpochAndReplyRules) {
  struct Case {
    const char* name;
    std::uint32_t gamma;  ///< γ of the node's epochs
    bool joiner;          ///< joined during epoch 0: sits it out
    /// Prepares the node and returns the input message.
    std::function<Message(Node&, FakeOutbox&, Rng&)> arrange;
    Outcome outcome;
    std::optional<AggReply> reply;  ///< the answer to node 2, if any
    bool via_refuse;                ///< ...handed to refuse()
    double estimate;
    std::uint64_t epoch;
    bool pending;
  };
  const auto cycle_once = [](Node& n, FakeOutbox& out, Rng& rng) {
    EXPECT_TRUE(n.cycle(/*now=*/1, rng, out));
  };
  const std::vector<Case> cases = {
      {"busy push is refused", 30, false,
       [&](Node& n, FakeOutbox& out, Rng& rng) -> Message {
         cycle_once(n, out, rng);
         return AggPush{0, 7, 2.0};
       },
       Outcome::kPushRefused, AggReply{0, 7, 0.0, true}, true, 4.0, 0, true},
      {"push to a gated joiner is refused", 30, true,
       [](Node&, FakeOutbox&, Rng&) -> Message { return AggPush{0, 7, 2.0}; },
       Outcome::kPushRefused, AggReply{0, 7, 0.0, true}, true, 4.0, 0, false},
      {"stale-epoch push gets a refusal carrying the newer epoch", 1, false,
       [&](Node& n, FakeOutbox& out, Rng& rng) -> Message {
         cycle_once(n, out, rng);  // γ = 1: this cycle rolls to epoch 1
         return AggPush{0, 7, 2.0};
       },
       Outcome::kPushRefused, AggReply{1, 7, 0.0, true}, false, 4.0, 1, false},
      {"newer-epoch push is adopted, then served", 30, false,
       [](Node& n, FakeOutbox& out, Rng&) -> Message {
         // An epoch-0 exchange moves the estimate off the local value;
         // adopting epoch 2 re-initializes it before serving.
         n.on_message(NodeId(3), AggPush{0, 5, 2.0}, /*now=*/1, out);
         return AggPush{2, 7, 0.0};
       },
       Outcome::kPushServed, AggReply{2, 7, 4.0, false}, false, 2.0, 2,
       false},
      {"matching reply completes the exchange", 30, false,
       [&](Node& n, FakeOutbox& out, Rng& rng) -> Message {
         cycle_once(n, out, rng);
         return AggReply{0, out.last_request(), 2.0, false};
       },
       Outcome::kReplyApplied, std::nullopt, false, 3.0, 0, false},
      {"reply after a timeout is ignored", 30, false,
       [&](Node& n, FakeOutbox& out, Rng& rng) -> Message {
         cycle_once(n, out, rng);
         EXPECT_TRUE(n.expire());
         return AggReply{0, out.last_request(), 2.0, false};
       },
       Outcome::kReplyLate, std::nullopt, false, 4.0, 0, false},
      {"late reply from a newer epoch is ignored entirely", 30, false,
       [&](Node& n, FakeOutbox& out, Rng& rng) -> Message {
         cycle_once(n, out, rng);
         EXPECT_TRUE(n.expire());
         return AggReply{2, out.last_request(), 2.0, false};
       },
       Outcome::kReplyLate, std::nullopt, false, 4.0, 0, false},
      {"late refusal still carries its newer epoch", 30, false,
       [&](Node& n, FakeOutbox& out, Rng& rng) -> Message {
         cycle_once(n, out, rng);
         EXPECT_TRUE(n.expire());
         return AggReply{2, out.last_request(), 0.0, true};
       },
       Outcome::kReplyLate, std::nullopt, false, 4.0, 2, false},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ProtocolConfig config;
    config.cycles_per_epoch = c.gamma;
    Node node = c.joiner ? Node(NodeId(0), 4.0, config, /*contact_epoch=*/0)
                         : Node(NodeId(0), 4.0, config);
    node.bootstrap_view(std::vector<membership::CacheEntry>{{NodeId(1), 0}});
    FakeOutbox out;
    Rng rng(1);
    const Message input = c.arrange(node, out, rng);
    const NodeId from(std::holds_alternative<AggPush>(input) ? 2 : 1);
    out.sent.clear();

    EXPECT_EQ(node.on_message(from, input, /*now=*/2, out), c.outcome);
    if (c.reply) {
      ASSERT_EQ(out.sent.size(), 1u);
      const auto& sent = out.sent.front();
      EXPECT_EQ(sent.to, from);
      EXPECT_EQ(sent.refusal, c.via_refuse);
      const auto* reply = std::get_if<AggReply>(&sent.message);
      ASSERT_NE(reply, nullptr);
      EXPECT_EQ(reply->epoch, c.reply->epoch);
      EXPECT_EQ(reply->request_id, c.reply->request_id);
      EXPECT_EQ(reply->refused, c.reply->refused);
      EXPECT_EQ(reply->value, c.reply->value);
    } else {
      EXPECT_TRUE(out.sent.empty());
    }
    EXPECT_EQ(node.estimate(), c.estimate);
    EXPECT_EQ(node.epoch(), c.epoch);
    EXPECT_EQ(node.pending(), c.pending);
  }
}

WorldConfig small_world(std::uint32_t n, std::uint64_t seed) {
  WorldConfig cfg;
  cfg.nodes = n;
  cfg.seed = seed;
  cfg.protocol.cache_size = 20;
  return cfg;
}

TEST(ProtoWorld, ConvergesToTrueAverage) {
  World w(small_world(300, 7));
  w.start();
  w.run_cycles(25);
  const auto s = w.estimate_summary();
  EXPECT_EQ(s.count, 300u);
  EXPECT_NEAR(s.mean, 1.0, 0.02);
  EXPECT_NEAR(s.min, 1.0, 0.05);
  EXPECT_NEAR(s.max, 1.0, 0.05);
}

TEST(ProtoWorld, VarianceDropsExponentially) {
  World w(small_world(500, 11));
  w.start();
  const double v0 = w.estimate_summary().variance;
  w.run_cycles(10);
  const double v10 = w.estimate_summary().variance;
  EXPECT_LT(v10, v0 * 1e-3);
}

TEST(ProtoWorld, ConvergenceFactorNearCycleDriver) {
  // Cross-engine agreement: the event engine (random phases, real
  // delays) must land in the same factor regime as the cycle driver,
  // between 1/(2√e) and 1/e (§6.2's two pairing models bracket it).
  stats::RunningStats factors;
  for (std::uint64_t seed : {13ull, 14ull, 15ull}) {
    World w(small_world(600, seed));
    w.start();
    w.run_cycles(2);  // settle phases
    const double va = w.estimate_summary().variance;
    w.run_cycles(10);
    const double vb = w.estimate_summary().variance;
    factors.add(std::pow(vb / va, 1.0 / 10.0));
  }
  EXPECT_GT(factors.mean(), theory::push_pull_factor() - 0.05);
  EXPECT_LT(factors.mean(), theory::uniform_pairing_factor() + 0.07);
}

TEST(ProtoWorld, ExchangeCountIsOnePlusPoissonOne) {
  // §4.5: per cycle a node initiates exactly one exchange and receives a
  // Poisson(1)-distributed number of pushes — mean 2 exchanges total.
  World w(small_world(800, 17));
  w.start();
  w.run_cycles(20);
  stats::RunningStats received, initiated;
  for (std::uint32_t u = 0; u < w.size(); ++u) {
    const auto& st = w.stats(NodeId(u));
    received.add(static_cast<double>(st.pushes_received) / 20.0);
    initiated.add(static_cast<double>(st.exchanges_initiated) / 20.0);
  }
  EXPECT_NEAR(initiated.mean(), 1.0, 0.06);  // exactly one per cycle
  EXPECT_NEAR(received.mean(), 1.0, 0.05);
  // Poisson(1) per cycle would give variance 1/20 for a 20-cycle mean;
  // newscast views are not perfectly uniform samplers, so the in-degree
  // is overdispersed — accept a band around the ideal.
  EXPECT_GT(received.variance(), 0.02);
  EXPECT_LT(received.variance(), 0.2);
}

TEST(ProtoWorld, CrashedPeerCausesTimeoutsNotHangs) {
  World w(small_world(50, 19));
  w.start();
  w.run_cycles(3);
  for (std::uint32_t u = 10; u < 35; ++u) w.crash(NodeId(u));
  w.run_cycles(10);
  std::uint64_t timeouts = 0;
  for (std::uint32_t u = 0; u < 10; ++u) {
    timeouts += w.stats(NodeId(u)).timeouts;
  }
  EXPECT_GT(timeouts, 0u);  // dead peers were contacted and timed out
  // Survivors still converge among themselves (mass of the dead is lost,
  // but estimates keep contracting).
  const auto s = w.estimate_summary();
  EXPECT_EQ(s.count, 25u);
  EXPECT_LT(s.variance, 1.0);
}

TEST(ProtoWorld, EpochRestartsProduceReports) {
  WorldConfig cfg = small_world(200, 23);
  cfg.protocol.cycles_per_epoch = 15;
  World w(cfg);
  w.start();
  w.run_cycles(16.5);  // past the first epoch boundary at every node
  const auto reports = w.reports();
  EXPECT_EQ(reports.size(), 200u);
  // The first epoch's report is the converged average ≈ 1. Residual
  // spread after γ=15 cycles: σ ≈ sqrt(σ0²·ρ^15) ≈ 0.03 — allow 5σ.
  for (double r : reports) EXPECT_NEAR(r, 1.0, 0.15);
  // All nodes rolled into epoch 1.
  for (std::uint32_t u = 0; u < 200; ++u) {
    EXPECT_EQ(w.node(NodeId(u)).epoch(), 1u) << u;
  }
}

TEST(ProtoWorld, SecondEpochAggregatesFreshValues) {
  // Adaptivity (§4.1): values change after epoch 0; epoch 1's report
  // reflects the new values, not the stale ones.
  WorldConfig cfg = small_world(200, 29);
  cfg.protocol.cycles_per_epoch = 12;
  World w(cfg);
  w.start();
  w.run_cycles(6);
  for (std::uint32_t u = 0; u < 200; ++u) {
    w.node(NodeId(u)).set_local_value(5.0);  // world shifted mid-epoch
  }
  w.run_cycles(19);  // finish epoch 0 (+6) and all of epoch 1 (+12), slack 1
  const auto reports = w.reports();
  ASSERT_FALSE(reports.empty());
  for (double r : reports) EXPECT_NEAR(r, 5.0, 0.1);
}

TEST(ProtoWorld, LaggardAdoptsNewerEpochEpidemically) {
  // §4.3: a node that missed the epoch roll jumps as soon as it hears a
  // higher epoch id. The laggard starts 12 cycles (two epochs and more)
  // after everyone else, so its own epoch counter trails the network's.
  WorldConfig cfg = small_world(100, 31);
  cfg.protocol.cycles_per_epoch = 5;
  World w(cfg);
  const NodeId laggard(42);
  for (std::uint32_t u = 0; u < 100; ++u) {
    if (NodeId(u) != laggard) w.start(NodeId(u));
  }
  w.run_cycles(12);
  w.start(laggard);
  w.run_cycles(18);
  EXPECT_GE(w.stats(laggard).epochs_adopted, 1u);
  std::uint64_t max_epoch = 0, min_epoch = ~0ull;
  for (std::uint32_t u = 0; u < 100; ++u) {
    const auto& n = w.node(NodeId(u));
    max_epoch = std::max(max_epoch, n.epoch());
    min_epoch = std::min(min_epoch, n.epoch());
  }
  // Despite random phases and the late start, the network stays
  // epoch-synchronized within 1.
  EXPECT_LE(max_epoch - min_epoch, 1u);
}

TEST(ProtoWorld, JoinerSitsOutThenParticipates) {
  WorldConfig cfg = small_world(120, 37);
  cfg.protocol.cycles_per_epoch = 12;
  World w(cfg);
  w.start();
  w.run_cycles(3);
  const NodeId fresh = w.join(NodeId(0), /*local_value=*/100.0);
  EXPECT_FALSE(w.node(fresh).participating());
  // Its 100.0 must NOT leak into the running epoch's average (true
  // avg 1); a leak would pull the report mean toward 1 + 100/121 ≈ 1.8.
  w.run_cycles(10.5);  // completes epoch 0 at every founder
  const auto reports = w.reports();
  ASSERT_FALSE(reports.empty());
  EXPECT_NEAR(stats::summarize(reports).mean, 1.0, 0.15);
  for (double r : reports) EXPECT_NEAR(r, 1.0, 0.5);
  // After the roll it participates.
  w.run_cycles(12);
  EXPECT_TRUE(w.node(fresh).participating());
  EXPECT_GT(w.stats(fresh).exchanges_completed, 0u);
}

TEST(ProtoWorld, MessageLossOnlyDegradesGracefully) {
  WorldConfig cfg = small_world(300, 41);
  cfg.p_loss = 0.1;
  World w(cfg);
  w.start();
  w.run_cycles(25);
  const auto s = w.estimate_summary();
  // Converged (tightly clustered) but the mean drifts off 1: response
  // loss changes the sum (§7.2), and with a peak workload an early loss
  // can carry a large fraction of the whole mass. "Reasonable range" is
  // the paper's own wording for this regime.
  EXPECT_LT(s.max - s.min, 0.2);
  EXPECT_GT(s.mean, 0.3);
  EXPECT_LT(s.mean, 3.0);
}

TEST(ProtoWorld, MinAndMaxBroadcastEpidemically) {
  for (const auto kind : {UpdateKind::kMin, UpdateKind::kMax}) {
    WorldConfig cfg = small_world(200, 43);
    cfg.protocol.update = kind;
    cfg.initial_value = [](NodeId id) {
      return static_cast<double>(id.value() + 1);
    };
    World w(cfg);
    w.start();
    w.run_cycles(15);
    const auto s = w.estimate_summary();
    const double expected = kind == UpdateKind::kMin ? 1.0 : 200.0;
    EXPECT_DOUBLE_EQ(s.min, expected);
    EXPECT_DOUBLE_EQ(s.max, expected);
  }
}

TEST(ProtoWorld, GeometricMeanConverges) {
  WorldConfig cfg = small_world(200, 47);
  cfg.protocol.update = UpdateKind::kGeometric;
  cfg.initial_value = [](NodeId id) { return id.value() % 2 == 0 ? 4.0 : 1.0; };
  World w(cfg);
  w.start();
  w.run_cycles(25);
  const auto s = w.estimate_summary();
  EXPECT_NEAR(s.mean, 2.0, 0.05);  // sqrt(4*1)
  EXPECT_LT(s.max - s.min, 0.1);
}

TEST(ProtoWorld, DeterministicBySeed) {
  const auto run_once = [] {
    World w(small_world(150, 51));
    w.start();
    w.run_cycles(12);
    return w.trace().digest();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ProtoWorld, NewscastViewStaysFreshUnderCrashes) {
  World w(small_world(200, 53));
  w.start();
  w.run_cycles(5);
  for (std::uint32_t u = 100; u < 200; ++u) w.crash(NodeId(u));
  w.run_cycles(15);
  // Live nodes' views should reference mostly live peers again.
  std::size_t stale = 0, total = 0;
  for (std::uint32_t u = 0; u < 100; ++u) {
    for (const auto& e : w.node(NodeId(u)).view().entries()) {
      ++total;
      stale += e.id.value() >= 100 ? 1 : 0;
    }
  }
  EXPECT_LT(static_cast<double>(stale) / static_cast<double>(total), 0.05);
}

TEST(ProtoWorld, Guards) {
  EXPECT_THROW(World(small_world(1, 1)), require_error);
  World w(small_world(10, 57));
  EXPECT_THROW((void)w.node(NodeId(10)), require_error);
  w.start();
  w.crash(NodeId(3));
  EXPECT_THROW(w.join(NodeId(3), 0.0), require_error);
}

}  // namespace
}  // namespace gossip::proto
