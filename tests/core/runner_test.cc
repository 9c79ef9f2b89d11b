/** @file Unit tests for the batch experiment runner. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "sim/logging.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using workload::TaskKind;

namespace
{

ExperimentConfig
smallConfig(TaskKind task, int scale)
{
    ExperimentConfig config;
    config.arch = Arch::ActiveDisk;
    config.task = task;
    config.scale = scale;
    return config;
}

/** Restores HOWSIM_JOBS on scope exit. */
class JobsEnvGuard
{
  public:
    JobsEnvGuard()
    {
        const char *v = std::getenv("HOWSIM_JOBS");
        hadValue = v != nullptr;
        if (hadValue)
            saved = v;
    }

    ~JobsEnvGuard()
    {
        if (hadValue)
            setenv("HOWSIM_JOBS", saved.c_str(), 1);
        else
            unsetenv("HOWSIM_JOBS");
    }

  private:
    bool hadValue = false;
    std::string saved;
};

} // namespace

TEST(Runner, EmptyBatchReturnsEmpty)
{
    EXPECT_TRUE(core::runExperiments({}, 4).empty());
}

TEST(Runner, PreservesInputOrder)
{
    // Different scales give strictly different elapsed times, so a
    // shuffled result vector would be caught.
    std::vector<ExperimentConfig> configs;
    for (int scale : {2, 4, 8})
        configs.push_back(smallConfig(TaskKind::Select, scale));

    auto batch = core::runExperiments(configs, 3);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        auto expected = core::runExperiment(configs[i]);
        EXPECT_EQ(batch[i].elapsedTicks, expected.elapsedTicks)
            << "scale " << configs[i].scale;
    }
}

TEST(Runner, MoreWorkersThanConfigsIsFine)
{
    std::vector<ExperimentConfig> configs
        = {smallConfig(TaskKind::Select, 2)};
    auto batch = core::runExperiments(configs, 16);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_GT(batch[0].elapsedTicks, 0u);
}

TEST(Runner, DefaultJobsHonorsEnvOverride)
{
    JobsEnvGuard guard;
    setenv("HOWSIM_JOBS", "3", 1);
    EXPECT_EQ(core::defaultJobs(), 3);
}

TEST(RunnerDeathTest, DefaultJobsRejectsGarbageEnv)
{
    JobsEnvGuard guard;
    setenv("HOWSIM_JOBS", "lots", 1);
    EXPECT_EXIT(core::defaultJobs(),
                testing::ExitedWithCode(1), "HOWSIM_JOBS");
    setenv("HOWSIM_JOBS", "0", 1);
    EXPECT_EXIT(core::defaultJobs(),
                testing::ExitedWithCode(1), "positive integer");
    setenv("HOWSIM_JOBS", "-2", 1);
    EXPECT_EXIT(core::defaultJobs(),
                testing::ExitedWithCode(1), "HOWSIM_JOBS");
}

TEST(Runner, ThrowingExperimentFailsItsSlotWithIdentity)
{
    std::vector<ExperimentConfig> configs;
    for (int scale : {2, 4, 8})
        configs.push_back(smallConfig(TaskKind::Select, scale));

    // The scale-4 experiment throws; the others must still complete
    // and the rethrown error must carry the experiment's identity.
    // Workers bump the counter concurrently, hence the atomic.
    std::atomic<int> ran{0};
    auto runOne = [&ran](const ExperimentConfig &config) {
        ++ran;
        if (config.scale == 4)
            throw std::runtime_error("deliberate failure");
        return core::runExperiment(config);
    };
    try {
        core::runExperiments(configs, runOne, 2);
        FAIL() << "expected the batch to rethrow";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("experiment 1"), std::string::npos) << what;
        EXPECT_NE(what.find("active"), std::string::npos) << what;
        EXPECT_NE(what.find("select"), std::string::npos) << what;
        EXPECT_NE(what.find("d4"), std::string::npos) << what;
        EXPECT_NE(what.find("deliberate failure"), std::string::npos)
            << what;
    }
    EXPECT_EQ(ran, 3);
}

TEST(Runner, LowestIndexFailureWinsWhenSeveralThrow)
{
    std::vector<ExperimentConfig> configs;
    for (int scale : {2, 4, 8})
        configs.push_back(smallConfig(TaskKind::Select, scale));

    auto runOne
        = [](const ExperimentConfig &config) -> tasks::TaskResult {
        throw std::runtime_error("boom d"
                                 + std::to_string(config.scale));
    };
    try {
        core::runExperiments(configs, runOne, 3);
        FAIL() << "expected the batch to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("boom d2"),
                  std::string::npos)
            << e.what();
    }
}
