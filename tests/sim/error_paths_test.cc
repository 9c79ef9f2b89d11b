/**
 * @file Error-path tests for the kernel primitives: the fatal/panic
 * contracts, one-shot misuse detection, and error propagation out of
 * blocked coroutines.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/awaitables.hh"
#include "sim/channel.hh"
#include "sim/completion.hh"
#include "sim/coro.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace howsim;
using namespace howsim::sim;

TEST(ErrorPathDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("modeled invariant %d broken", 7),
                 "panic: modeled invariant 7 broken");
}

TEST(ErrorPathDeathTest, FatalExitsWithCodeOne)
{
    EXPECT_EXIT(fatal("bad user input: %s", "nonsense"),
                testing::ExitedWithCode(1),
                "fatal: bad user input: nonsense");
}

TEST(ErrorPathDeathTest, CompletionDoubleFirePanics)
{
    EXPECT_DEATH(
        {
            Simulator sim;
            Completion done;
            auto body = [&]() -> Coro<void> {
                done.fire();
                done.fire();
                co_return;
            };
            sim.spawn(body());
            sim.run();
        },
        "fired twice");
}

TEST(ErrorPathDeathTest, LogLevelEnvGarbageIsFatal)
{
    setenv("HOWSIM_LOG_LEVEL", "verbose", 1);
    EXPECT_EXIT(logLevelFromEnv(), testing::ExitedWithCode(1),
                "HOWSIM_LOG_LEVEL");
    unsetenv("HOWSIM_LOG_LEVEL");
}

TEST(ErrorPath, UncaughtChannelClosedSurfacesFromRun)
{
    // A sender blocked on a full channel sees ChannelClosed when the
    // consumer closes under it; if the sender does not catch it, the
    // exception must unwind the coroutine and surface from run().
    Simulator sim;
    Channel<int> ch(1);
    auto sender = [&]() -> Coro<void> {
        co_await ch.send(1);
        co_await ch.send(2); // blocks, then throws ChannelClosed
    };
    auto closer = [&]() -> Coro<void> {
        co_await delay(100);
        ch.close();
    };
    sim.spawn(sender());
    sim.spawn(closer());
    EXPECT_THROW(sim.run(), ChannelClosed);
}

TEST(ErrorPath, CompletionSingleFireStillDeliversWaiter)
{
    // The double-fire panic must not break the normal one-shot path.
    Simulator sim;
    Completion done;
    bool resumed = false;
    auto waiter = [&]() -> Coro<void> {
        co_await done.wait();
        resumed = true;
    };
    auto firer = [&]() -> Coro<void> {
        co_await delay(10);
        done.fire();
    };
    sim.spawn(waiter());
    sim.spawn(firer());
    sim.run();
    EXPECT_TRUE(resumed);
    EXPECT_TRUE(done.fired());
}
