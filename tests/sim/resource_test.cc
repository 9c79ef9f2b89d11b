/** @file Unit tests for counting resources and scoped grants. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/awaitables.hh"
#include "sim/coro.hh"
#include "sim/resource.hh"
#include "sim/simulator.hh"

using namespace howsim::sim;

TEST(Resource, ImmediateGrantWhenAvailable)
{
    Simulator sim;
    Resource res(3);
    Tick acquired_at = maxTick;
    auto body = [&]() -> Coro<void> {
        co_await res.acquire(2);
        acquired_at = Simulator::current()->now();
        res.release(2);
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(acquired_at, 0u);
    EXPECT_EQ(res.available(), 3);
}

TEST(Resource, BlocksUntilRelease)
{
    Simulator sim;
    Resource res(1);
    Tick second_at = 0;
    auto holder = [&]() -> Coro<void> {
        co_await res.acquire();
        co_await delay(400);
        res.release();
    };
    auto waiter = [&]() -> Coro<void> {
        co_await delay(1); // ensure holder wins the race
        co_await res.acquire();
        second_at = Simulator::current()->now();
        res.release();
    };
    sim.spawn(holder());
    sim.spawn(waiter());
    sim.run();
    EXPECT_EQ(second_at, 400u);
}

TEST(Resource, FifoGrantOrder)
{
    Simulator sim;
    Resource res(1);
    std::vector<int> order;
    auto holder = [&]() -> Coro<void> {
        co_await res.acquire();
        co_await delay(100);
        res.release();
    };
    auto waiter = [&](int id) -> Coro<void> {
        co_await delay(static_cast<Tick>(id)); // arrival order = id
        co_await res.acquire();
        order.push_back(id);
        co_await delay(10);
        res.release();
    };
    sim.spawn(holder());
    for (int i = 1; i <= 4; ++i)
        sim.spawn(waiter(i));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Resource, NoBargingPastLargeRequest)
{
    Simulator sim;
    Resource res(4);
    std::vector<char> order;
    auto holder = [&]() -> Coro<void> {
        co_await res.acquire(3);
        co_await delay(100);
        res.release(3);
    };
    // 'big' needs 4 units and arrives before 'small' (needs 1).
    // Even though 1 unit is free, small must not overtake big.
    auto big = [&]() -> Coro<void> {
        co_await delay(1);
        co_await res.acquire(4);
        order.push_back('B');
        res.release(4);
    };
    auto small = [&]() -> Coro<void> {
        co_await delay(2);
        co_await res.acquire(1);
        order.push_back('s');
        res.release(1);
    };
    sim.spawn(holder());
    sim.spawn(big());
    sim.spawn(small());
    sim.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 'B');
    EXPECT_EQ(order[1], 's');
}

TEST(Resource, CountsWaitTime)
{
    Simulator sim;
    Resource res(1);
    auto holder = [&]() -> Coro<void> {
        co_await res.acquire();
        co_await delay(250);
        res.release();
    };
    auto waiter = [&]() -> Coro<void> {
        co_await delay(50);
        co_await res.acquire();
        res.release();
    };
    sim.spawn(holder());
    sim.spawn(waiter());
    sim.run();
    EXPECT_EQ(res.totalWait(), 200u);
}

TEST(Resource, UtilizationIntegratesHeldUnits)
{
    Simulator sim;
    Resource res(2);
    auto body = [&]() -> Coro<void> {
        co_await res.acquire(2);
        co_await delay(500);
        res.release(2);
        co_await delay(500);
    };
    sim.spawn(body());
    Tick end = sim.run();
    EXPECT_EQ(end, 1000u);
    EXPECT_NEAR(res.utilization(end), 0.5, 1e-9);
}

TEST(Resource, ManyContendersAllEventuallyServed)
{
    Simulator sim;
    Resource res(4);
    int served = 0;
    auto user = [&]() -> Coro<void> {
        co_await res.acquire(3);
        co_await delay(7);
        res.release(3);
        ++served;
    };
    const int n = 200;
    for (int i = 0; i < n; ++i)
        sim.spawn(user());
    sim.run();
    EXPECT_EQ(served, n);
    EXPECT_EQ(res.available(), 4);
}
