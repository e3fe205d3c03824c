// Quorum-based mutual exclusion: safety (never two holders) and progress.
#include "protocols/mutex_client.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/algorithms/probe_cw.h"
#include "core/algorithms/probe_maj.h"
#include "protocols/server_node.h"
#include "quorum/crumbling_wall.h"
#include "quorum/majority.h"
#include "sim/fault_injector.h"

namespace qps::protocols {
namespace {

using sim::Network;
using sim::NodeId;
using sim::Simulator;

struct MutexFixture {
  Simulator simulator;
  Rng net_rng{101};
  Network net{simulator, net_rng, sim::uniform_latency(0.1, 0.5)};
  std::vector<std::unique_ptr<ServerNode>> servers;
  std::vector<std::unique_ptr<MutexClient>> clients;
  MajoritySystem system{5};
  ProbeMaj strategy{system};

  explicit MutexFixture(std::size_t client_count) {
    for (NodeId id = 0; id < system.universe_size(); ++id) {
      servers.push_back(std::make_unique<ServerNode>(id));
      net.add_node(servers.back().get());
    }
    MutexClient::Options options;
    options.ping_timeout = 1.0;
    options.lock_timeout = 2.0;
    options.backoff_base = 1.0;
    options.max_attempts = 64;
    for (std::size_t i = 0; i < client_count; ++i) {
      const auto id = static_cast<NodeId>(system.universe_size() + i);
      clients.push_back(std::make_unique<MutexClient>(
          net, id, system, strategy, Rng(500 + i), options));
      net.add_node(clients.back().get());
    }
  }

  std::size_t holders() const {
    std::size_t count = 0;
    for (const auto& c : clients)
      if (c->holds_lock()) ++count;
    return count;
  }
};

TEST(Mutex, SingleClientAcquiresAndReleases) {
  MutexFixture f(1);
  bool acquired = false;
  f.clients[0]->acquire([&](bool ok) { acquired = ok; });
  f.simulator.run();
  EXPECT_TRUE(acquired);
  EXPECT_TRUE(f.clients[0]->holds_lock());
  // The locked quorum members agree on the holder.
  for (Element m : f.clients[0]->locked_quorum()->to_vector()) {
    EXPECT_TRUE(f.servers[m]->locked());
    EXPECT_EQ(f.servers[m]->lock_holder(), f.clients[0]->id());
  }
  f.clients[0]->release();
  f.simulator.run();
  for (const auto& server : f.servers) EXPECT_FALSE(server->locked());
}

TEST(Mutex, TwoClientsNeverHoldSimultaneously) {
  MutexFixture f(2);
  int acquired_count = 0;
  bool overlap = false;
  // Each client acquires, holds for 3 time units (polling safety), then
  // releases; the second starts slightly later.
  for (std::size_t i = 0; i < 2; ++i) {
    f.simulator.schedule(
        0.1 * static_cast<double>(i), [&f, i, &acquired_count, &overlap]() {
          f.clients[i]->acquire([&f, i, &acquired_count, &overlap](bool ok) {
            if (!ok) return;
            ++acquired_count;
            overlap = overlap || f.holders() > 1;
            f.simulator.schedule(3.0, [&f, i]() { f.clients[i]->release(); });
          });
        });
  }
  // Poll the safety invariant at fine granularity throughout the run.
  for (double t = 0.0; t < 120.0; t += 0.05)
    f.simulator.schedule_at(t, [&f, &overlap]() {
      overlap = overlap || f.holders() > 1;
    });
  f.simulator.run();
  EXPECT_FALSE(overlap);
  EXPECT_EQ(acquired_count, 2);  // both eventually succeeded
}

TEST(Mutex, ManyClientsSerializeSafely) {
  MutexFixture f(4);
  int acquired_count = 0;
  bool overlap = false;
  for (std::size_t i = 0; i < 4; ++i) {
    f.simulator.schedule(0.05 * static_cast<double>(i), [&f, i,
                                                         &acquired_count,
                                                         &overlap]() {
      f.clients[i]->acquire([&f, i, &acquired_count, &overlap](bool ok) {
        if (!ok) return;
        ++acquired_count;
        overlap = overlap || f.holders() > 1;
        f.simulator.schedule(1.5, [&f, i]() { f.clients[i]->release(); });
      });
    });
  }
  for (double t = 0.0; t < 400.0; t += 0.05)
    f.simulator.schedule_at(t, [&f, &overlap]() {
      overlap = overlap || f.holders() > 1;
    });
  f.simulator.run();
  EXPECT_FALSE(overlap);
  EXPECT_GE(acquired_count, 3);  // near-complete progress under backoff
}

TEST(Mutex, ToleratesMinorityCrash) {
  MutexFixture f(1);
  // Crash 2 of 5 servers: a majority quorum of live nodes remains.
  f.servers[0]->crash();
  f.servers[3]->crash();
  bool acquired = false;
  f.clients[0]->acquire([&](bool ok) { acquired = ok; });
  f.simulator.run();
  EXPECT_TRUE(acquired);
  for (Element m : f.clients[0]->locked_quorum()->to_vector()) {
    EXPECT_NE(m, 0u);
    EXPECT_NE(m, 3u);
  }
}

TEST(Mutex, FailsCleanlyWithoutLiveQuorum) {
  MutexFixture f(1);
  // Crash a majority: no live quorum exists.
  for (NodeId id : {0u, 1u, 2u}) f.servers[id]->crash();
  bool done = false, result = true;
  f.clients[0]->acquire([&](bool ok) {
    done = true;
    result = ok;
  });
  f.simulator.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(result);
  EXPECT_FALSE(f.clients[0]->holds_lock());
  for (const auto& server : f.servers)
    if (server->alive()) {
      EXPECT_FALSE(server->locked());
    }
}

TEST(Mutex, WorksWithCrumblingWallSystem) {
  Simulator simulator;
  Rng rng(202);
  Network net(simulator, rng, sim::uniform_latency(0.1, 0.3));
  const CrumblingWall wall({1, 2, 3});
  std::vector<std::unique_ptr<ServerNode>> servers;
  for (NodeId id = 0; id < wall.universe_size(); ++id) {
    servers.push_back(std::make_unique<ServerNode>(id));
    net.add_node(servers.back().get());
  }
  const ProbeCW strategy(wall);
  MutexClient::Options options;
  options.ping_timeout = 1.0;
  MutexClient client(net, static_cast<NodeId>(wall.universe_size()), wall,
                     strategy, Rng(1), options);
  net.add_node(&client);

  bool acquired = false;
  client.acquire([&](bool ok) { acquired = ok; });
  simulator.run();
  EXPECT_TRUE(acquired);
  EXPECT_TRUE(wall.contains_quorum(*client.locked_quorum()));
}

TEST(Mutex, SafetyHoldsOnALossyNetwork) {
  // 20% message loss: grants, denies and unlocks may vanish.  Liveness is
  // not guaranteed, but two clients must never both hold the lock.
  MutexFixture f(3);
  f.net.set_drop_probability(0.2);
  bool overlap = false;
  for (std::size_t i = 0; i < 3; ++i) {
    f.simulator.schedule(0.05 * static_cast<double>(i), [&f, i, &overlap]() {
      f.clients[i]->acquire([&f, i, &overlap](bool ok) {
        if (!ok) return;
        overlap = overlap || f.holders() > 1;
        f.simulator.schedule(2.0, [&f, i]() { f.clients[i]->release(); });
      });
    });
  }
  for (double t = 0.0; t < 300.0; t += 0.05)
    f.simulator.schedule_at(t, [&f, &overlap]() {
      overlap = overlap || f.holders() > 1;
    });
  f.simulator.run(4'000'000);
  EXPECT_FALSE(overlap);
}

TEST(Mutex, HolderSurvivesUnrelatedServerCrash) {
  MutexFixture f(1);
  bool acquired = false;
  f.clients[0]->acquire([&](bool ok) { acquired = ok; });
  f.simulator.run();
  ASSERT_TRUE(acquired);
  // Crash a server outside the locked quorum: the holder is unaffected.
  const ElementSet quorum = *f.clients[0]->locked_quorum();
  sim::NodeId outsider = 0;
  for (sim::NodeId id = 0; id < 5; ++id)
    if (!quorum.contains(id)) {
      outsider = id;
      break;
    }
  f.servers[outsider]->crash();
  EXPECT_TRUE(f.clients[0]->holds_lock());
  // A second client must still be denied while the lock is held.
  MutexClient::Options options;
  options.ping_timeout = 1.0;
  options.lock_timeout = 2.0;
  options.backoff_base = 1.0;
  options.max_attempts = 2;  // fail fast
  MutexClient rival(f.net, 6, f.system, f.strategy, Rng(99), options);
  f.net.add_node(&rival);
  bool rival_result = true;
  bool rival_done = false;
  rival.acquire([&](bool ok) {
    rival_done = true;
    rival_result = ok;
  });
  f.simulator.run();
  EXPECT_TRUE(rival_done);
  EXPECT_FALSE(rival_result);
  EXPECT_TRUE(f.clients[0]->holds_lock());
}

TEST(Mutex, RejectsConcurrentAcquire) {
  MutexFixture f(1);
  f.clients[0]->acquire([](bool) {});
  EXPECT_THROW(f.clients[0]->acquire([](bool) {}), std::invalid_argument);
  f.simulator.run();
}

}  // namespace
}  // namespace qps::protocols
