/** @file Tests for the CPU time model. */

#include <gtest/gtest.h>

#include "os/cpu.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;

TEST(Cpu, ScalesReferenceTimeByClockRatio)
{
    Simulator sim;
    os::Cpu cpu(sim, 550); // twice the 275 MHz reference
    EXPECT_EQ(cpu.scaled(milliseconds(100)), milliseconds(50));
    os::Cpu slow(sim, 137.5);
    EXPECT_EQ(slow.scaled(milliseconds(100)), milliseconds(200));
}

TEST(Cpu, SerializesConcurrentWork)
{
    Simulator sim;
    os::Cpu cpu(sim, 275);
    Tick done = 0;
    int remaining = 4;
    auto body = [&]() -> Coro<void> {
        co_await cpu.compute(milliseconds(10));
        if (--remaining == 0)
            done = Simulator::current()->now();
    };
    for (int i = 0; i < 4; ++i)
        sim.spawn(body());
    sim.run();
    EXPECT_EQ(done, milliseconds(40));
    EXPECT_EQ(cpu.busyTicks(), milliseconds(40));
}

TEST(Cpu, ChargesContextSwitchOnContendedHandoff)
{
    Simulator sim;
    os::Cpu cpu(sim, 275, 275, microseconds(100));
    Tick done = 0;
    int remaining = 2;
    auto body = [&]() -> Coro<void> {
        co_await cpu.compute(milliseconds(10));
        if (--remaining == 0)
            done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.spawn(body());
    sim.run();
    // Second compute finds the CPU busy: one switch charged.
    EXPECT_EQ(done, milliseconds(20) + microseconds(100));
    EXPECT_EQ(cpu.switchCount(), 1u);
}

TEST(Cpu, NoSwitchChargeWhenIdle)
{
    Simulator sim;
    os::Cpu cpu(sim, 275, 275, microseconds(100));
    Tick done = 0;
    auto body = [&]() -> Coro<void> {
        co_await cpu.compute(milliseconds(5));
        co_await cpu.compute(milliseconds(5));
        done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    EXPECT_EQ(done, milliseconds(10));
    EXPECT_EQ(cpu.switchCount(), 0u);
}

TEST(Cpu, CopyBytesUsesReferenceRate)
{
    Simulator sim;
    os::Cpu cpu(sim, 550); // 2x reference clock
    Tick done = 0;
    auto body = [&]() -> Coro<void> {
        // 1 MB at a 10 MB/s reference rate = 100 ms ref = 50 ms here.
        co_await cpu.copyBytes(1000000, 10e6);
        done = Simulator::current()->now();
    };
    sim.spawn(body());
    sim.run();
    EXPECT_NEAR(toMilliseconds(done), 50.0, 0.1);
}
