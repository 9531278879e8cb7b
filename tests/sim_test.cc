// Tests for the discrete-event substrate: event ordering, timers,
// network delivery model, failure injection, host CPU serialization and
// the RPC layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/host.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace sedna::sim {
namespace {

// ---- Simulation core --------------------------------------------------------

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, SameTimeEventsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  auto handle = sim.schedule(10, [&] { ran = true; });
  handle.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(handle.active());
}

TEST(Simulation, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulation sim;
  int fires = 0;
  auto handle = sim.schedule_periodic(100, [&] { ++fires; });
  sim.run_until(450);
  EXPECT_EQ(fires, 4);
  handle.cancel();
  sim.run_until(1000);
  EXPECT_EQ(fires, 4);
}

TEST(Simulation, RunUntilAdvancesClockEvenWhenIdle) {
  Simulation sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulation, RunUntilDoesNotExecuteLaterEvents) {
  Simulation sim;
  bool ran = false;
  sim.schedule(100, [&] { ran = true; });
  sim.run_until(99);
  EXPECT_FALSE(ran);
  sim.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(Simulation, NestedSchedulingWorks) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulation, RunReturnsEventCountAndHonoursCap) {
  Simulation sim;
  // Self-perpetuating event chain.
  std::function<void()> chain = [&] { sim.schedule(1, chain); };
  sim.schedule(1, chain);
  EXPECT_EQ(sim.run(100), 100u);
}

TEST(Simulation, SeededRngIsDeterministic) {
  Simulation a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.rng().next(), b.rng().next());
  }
}

TEST(Simulation, CancelAfterFireIsInertEvenWhenTheSlotIsReused) {
  Simulation sim;
  int first = 0;
  int second = 0;
  TimerHandle fired = sim.schedule(10, [&] { ++first; });
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(fired.active());
  // The next event takes the slot the fired one freed; the stale handle
  // must not reach it.
  TimerHandle next = sim.schedule(10, [&] { ++second; });
  fired.cancel();
  EXPECT_TRUE(next.active());
  sim.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulation, PeriodicCancelsItselfFromItsOwnCallback) {
  Simulation sim;
  int fires = 0;
  TimerHandle handle;
  handle = sim.schedule_periodic(100, [&] {
    if (++fires == 3) handle.cancel();
  });
  sim.run_until(1000);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(handle.active());
  EXPECT_EQ(sim.run(10), 0u);  // nothing re-armed

  // Cancel-then-reschedule from inside the callback (a restarted
  // heartbeat): only the new schedule runs, even though it may reuse the
  // slot of the one it replaced.
  int old_fires = 0;
  int new_fires = 0;
  handle = sim.schedule_periodic(100, [&] {
    ++old_fires;
    handle.cancel();
    handle = sim.schedule_periodic(50, [&] { ++new_fires; });
  });
  sim.run_for(300);
  EXPECT_EQ(old_fires, 1);
  EXPECT_EQ(new_fires, 4);
}

TEST(Simulation, CopiedHandleCancelsTheSameEvent) {
  Simulation sim;
  bool ran = false;
  int ticks = 0;
  TimerHandle one_shot = sim.schedule(10, [&] { ran = true; });
  TimerHandle periodic = sim.schedule_periodic(10, [&] { ++ticks; });
  const TimerHandle one_shot_copy = one_shot;
  TimerHandle periodic_copy = periodic;
  sim.run_until(25);
  EXPECT_EQ(ticks, 2);
  EXPECT_TRUE(ran);
  EXPECT_FALSE(one_shot_copy.active());  // fired: inert through every copy

  ran = false;
  periodic_copy.cancel();
  EXPECT_FALSE(periodic.active());
  TimerHandle late = sim.schedule(10, [&] { ran = true; });
  TimerHandle late_copy = late;
  late_copy.cancel();
  EXPECT_FALSE(late.active());
  // Bounded: a periodic that escaped its cancel would never drain.
  EXPECT_EQ(sim.run(100), 0u);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(ran);
}

TEST(Simulation, SameTimeEventsStayFifoAcrossCancels) {
  Simulation sim;
  std::vector<int> order;
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 20; ++i) {
    handles.push_back(sim.schedule(5, [&order, i] { order.push_back(i); }));
  }
  std::vector<int> expected;
  for (int i = 0; i < 20; ++i) {
    if (i % 3 == 0) {
      handles[i].cancel();
    } else {
      expected.push_back(i);
    }
  }
  // Later events reuse the cancelled events' slots but still run after
  // every earlier same-time event.
  for (int i = 20; i < 27; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
    expected.push_back(i);
  }
  sim.run();
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.now(), 5u);
}

// ---- Network model ------------------------------------------------------------

/// Minimal host that records incoming messages.
class SinkHost : public Host {
 public:
  using Host::Host;
  std::vector<Message> received;
  std::vector<SimTime> arrival_times;

 protected:
  void on_message(const Message& msg) override {
    received.push_back(msg);
    arrival_times.push_back(now());
  }
};

struct NetFixture {
  NetworkConfig make_quiet() {
    NetworkConfig cfg;
    cfg.jitter_frac = 0.0;  // deterministic latency for assertions
    return cfg;
  }
};

TEST(Network, DeliveryLatencyIsBasePlusTransmit) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.base_latency_us = 100;
  cfg.bandwidth_bytes_per_us = 100.0;
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  SinkHost a(net, 1), b(net, 2);
  // wire_size = payload + 32 header bytes = 132 → transmit 1.32 us.
  a.send_oneway(2, 900, std::string(100, 'x'));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  // arrival = delivery(101) + service time; delivery happened at 101.
  EXPECT_GE(b.arrival_times[0], 101u);
  EXPECT_LT(b.arrival_times[0], 101u + 20u);
}

TEST(Network, LargerMessagesTakeLonger) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  SinkHost a(net, 1), b(net, 2);
  a.send_oneway(2, 900, std::string(100000, 'x'));  // 800 us transmit
  a.send_oneway(2, 901, "tiny");
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].type, 901u);  // the small one arrives first
}

TEST(Network, CrashedReceiverDropsMessages) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  b.crash();
  a.send_oneway(2, 900, "hello");
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, CrashMidFlightDropsAtDelivery) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  a.send_oneway(2, 900, "hello");
  sim.schedule(1, [&] { b.crash(); });  // crash before ~120 us delivery
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, RestartResumesDelivery) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  b.crash();
  b.restart();
  a.send_oneway(2, 900, "hello");
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, PartitionBlocksBothDirections) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  net.partition(1, 2);
  a.send_oneway(2, 900, "x");
  b.send_oneway(1, 900, "y");
  sim.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  net.heal(1, 2);
  a.send_oneway(2, 900, "x");
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, LossDropsFraction) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.loss_prob = 0.5;
  Network net(sim, cfg);
  SinkHost a(net, 1), b(net, 2);
  for (int i = 0; i < 1000; ++i) a.send_oneway(2, 900, "x");
  sim.run();
  EXPECT_GT(b.received.size(), 350u);
  EXPECT_LT(b.received.size(), 650u);
}

TEST(Network, LoopbackAlwaysDelivers) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.loss_prob = 1.0;  // the wire drops everything...
  Network net(sim, cfg);
  SinkHost a(net, 1);
  a.send_oneway(1, 900, "self");  // ...but loopback bypasses it
  sim.run();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(Network, CountsBytesAndMessages) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  a.send_oneway(2, 900, "0123456789");
  sim.run();
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_sent(), 42u);  // 10 payload + 32 header
}

// ---- Host CPU + RPC --------------------------------------------------------------

TEST(Host, CpuSerializesBackToBackMessages) {
  Simulation sim;
  NetworkConfig ncfg;
  ncfg.jitter_frac = 0.0;
  Network net(sim, ncfg);
  HostConfig hcfg;
  hcfg.base_service_us = 100;
  hcfg.service_jitter_frac = 0.0;
  SinkHost a(net, 1);
  SinkHost b(net, 2, hcfg);
  a.send_oneway(2, 900, "first");
  a.send_oneway(2, 901, "second");
  sim.run();
  ASSERT_EQ(b.arrival_times.size(), 2u);
  // Both arrive on the wire ~together, but processing is serialized by
  // the 100 us CPU cost.
  EXPECT_GE(b.arrival_times[1], b.arrival_times[0] + 100);
}

/// Echo server for RPC tests.
class EchoHost : public Host {
 public:
  using Host::Host;
  bool mute = false;

 protected:
  void on_message(const Message& msg) override {
    if (!mute) reply(msg, "echo:" + msg.payload);
  }
};

TEST(Rpc, RequestResponseRoundTrip) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  std::optional<std::string> response;
  client.call(1, 900, "ping",
              [&](const Status& st, const std::string& body) {
                ASSERT_TRUE(st.ok());
                response = body;
              });
  sim.run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:ping");
  EXPECT_EQ(client.pending_rpcs(), 0u);
}

TEST(Rpc, TimeoutFiresWhenServerSilent) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  server.mute = true;
  SinkHost client(net, 2);
  std::optional<Status> result;
  client.call_with_timeout(1, 900, "ping", 1000,
                           [&](const Status& st, const std::string&) {
                             result = st;
                           });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is(StatusCode::kTimeout));
}

TEST(Rpc, TimeoutFiresWhenServerCrashed) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  server.crash();
  SinkHost client(net, 2);
  std::optional<Status> result;
  client.call_with_timeout(1, 900, "ping", 1000,
                           [&](const Status& st, const std::string&) {
                             result = st;
                           });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is(StatusCode::kTimeout));
}

TEST(Rpc, LateResponseAfterTimeoutIsIgnored) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.base_latency_us = 2000;  // slower than the rpc timeout
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  int callbacks = 0;
  client.call_with_timeout(1, 900, "ping", 1000,
                           [&](const Status& st, const std::string&) {
                             ++callbacks;
                             EXPECT_TRUE(st.is(StatusCode::kTimeout));
                           });
  sim.run();
  EXPECT_EQ(callbacks, 1);  // the late echo must not double-invoke
}

TEST(Rpc, ConcurrentCallsMatchTheRightResponses) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  std::map<int, std::string> responses;
  for (int i = 0; i < 20; ++i) {
    client.call(1, 900, "m" + std::to_string(i),
                [&, i](const Status& st, const std::string& body) {
                  ASSERT_TRUE(st.ok());
                  responses[i] = body;
                });
  }
  sim.run();
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i], "echo:m" + std::to_string(i));
  }
}

TEST(Rpc, CrashClearsPendingCallbacks) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  server.mute = true;
  SinkHost client(net, 2);
  bool fired = false;
  client.call(1, 900, "ping",
              [&](const Status&, const std::string&) { fired = true; });
  client.crash();
  sim.run();
  EXPECT_FALSE(fired);  // the whole host died; no stray callback
}

/// Records every payload it services or sheds, in order.
class PayloadHost : public Host {
 public:
  using Host::Host;
  std::vector<std::string> serviced;
  std::vector<std::string> shed;

 protected:
  void on_message(const Message& msg) override {
    serviced.push_back(msg.payload);
  }
  void on_shed(const Message& msg, ShedReason) override {
    shed.push_back(msg.payload);
  }
};

TEST(Host, MovedPayloadsArriveIntactOnEveryPath) {
  Simulation sim;
  Network net(sim);
  HostConfig cfg;
  cfg.max_ingress_queue = 2;
  cfg.base_service_us = 1000;  // slower than the burst arrives
  SinkHost sender(net, 1);
  PayloadHost receiver(net, 2, cfg);
  // Heap-sized payloads, so a payload lost to a move shows as empty.
  auto payload = [](int i) { return std::string(64, 'a' + i); };

  // Queue-full shedding: the shed messages keep their payloads too.
  for (int i = 0; i < 5; ++i) sender.send_oneway(2, 900, payload(i));
  sim.run();
  ASSERT_EQ(receiver.serviced.size() + receiver.shed.size(), 5u);
  ASSERT_FALSE(receiver.shed.empty());
  std::vector<std::string> seen = receiver.serviced;
  seen.insert(seen.end(), receiver.shed.begin(), receiver.shed.end());
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seen[i], payload(i));

  // Deadline shedding at dequeue: the payload has been through the queue.
  receiver.serviced.clear();
  receiver.shed.clear();
  sender.call_with_timeout(
      2, 900, payload(5), 1000, [](const Status&, const std::string&) {},
      /*deadline=*/sim.now() + 1);
  sim.run();
  EXPECT_TRUE(receiver.serviced.empty());
  EXPECT_EQ(receiver.shed, std::vector<std::string>{payload(5)});

  // Crash while a message is in flight: it is dropped at delivery; the
  // next one after the restart arrives whole.
  receiver.shed.clear();
  sender.send_oneway(2, 900, payload(6));
  sim.schedule(1, [&] { receiver.crash(); });
  sim.run();
  EXPECT_TRUE(receiver.serviced.empty());
  EXPECT_EQ(net.metrics().counter("net.drops.crashed").value(), 1u);
  receiver.restart();
  sender.send_oneway(2, 900, payload(7));
  sim.run();
  EXPECT_EQ(receiver.serviced, std::vector<std::string>{payload(7)});

  // A partition drops at send; the healed link delivers intact.
  receiver.serviced.clear();
  net.partition(1, 2);
  sender.send_oneway(2, 900, payload(8));
  net.heal(1, 2);
  sender.send_oneway(2, 900, payload(9));
  sim.run();
  EXPECT_EQ(receiver.serviced, std::vector<std::string>{payload(9)});
  EXPECT_TRUE(receiver.shed.empty());
}

TEST(Rpc, LargeResponsePayloadRoundTrips) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  const std::string big(4096, 'q');
  std::optional<std::string> response;
  client.call(1, 900, big, [&](const Status& st, const std::string& body) {
    ASSERT_TRUE(st.ok());
    response = body;
  });
  sim.run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:" + big);
}

TEST(Rpc, DestroyedHostWithCpuWorkInFlight) {
  Simulation sim;
  Network net(sim);
  HostConfig slow;
  slow.base_service_us = 1000;
  SinkHost sender(net, 1);
  {
    SinkHost busy(net, 2, slow);
    sender.send_oneway(2, 900, "work");
    sim.run_for(500);  // delivered, service still running
  }  // destroyed mid-service
  sim.run();  // the completion must not touch the destroyed host
  SUCCEED();
}

TEST(Rpc, DestroyedHostNeverTouchedBySim) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  {
    SinkHost client(net, 2);
    client.call(1, 900, "ping", [](const Status&, const std::string&) {
      FAIL() << "callback on a destroyed host";
    });
  }  // client destroyed with the RPC in flight
  sim.run();  // must not crash or fire the callback
  SUCCEED();
}

}  // namespace
}  // namespace sedna::sim
