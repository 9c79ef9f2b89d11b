/**
 * @file Observability under the parallel experiment runner. Every
 * experiment owns a thread-local obs session, so running a batch on
 * four workers with HOWSIM_METRICS and HOWSIM_TRACE_DIR set must write
 * one well-formed metrics file and one well-formed trace per
 * experiment, and must leave every result bit-equal to a serial run
 * with observability off. The thread-sanitizer CI job runs this test.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"

using namespace howsim;
using core::Arch;
using core::ExperimentConfig;
using workload::TaskKind;

namespace fs = std::filesystem;

namespace
{

/** Minimal recursive-descent JSON checker: true iff @p text parses. */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    wellFormed()
    {
        return value() && (skipSpace(), pos == s.size());
    }

  private:
    void
    skipSpace()
    {
        while (pos < s.size()
               && std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        std::string w(word);
        if (s.compare(pos, w.size(), w) != 0)
            return false;
        pos += w.size();
        return true;
    }

    bool
    string()
    {
        if (s[pos] != '"')
            return false;
        for (++pos; pos < s.size(); ++pos) {
            if (s[pos] == '\\')
                ++pos;
            else if (s[pos] == '"')
                return ++pos, true;
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = pos;
        while (pos < s.size()
               && (std::isdigit(static_cast<unsigned char>(s[pos]))
                   || std::string("+-.eE").find(s[pos])
                          != std::string::npos))
            ++pos;
        return pos > start;
    }

    bool
    sequence(char close, bool keyed)
    {
        ++pos;
        skipSpace();
        if (pos < s.size() && s[pos] == close)
            return ++pos, true;
        for (;;) {
            skipSpace();
            if (keyed) {
                if (pos >= s.size() || !string())
                    return false;
                skipSpace();
                if (pos >= s.size() || s[pos++] != ':')
                    return false;
            }
            if (!value())
                return false;
            skipSpace();
            if (pos >= s.size())
                return false;
            if (s[pos] == close)
                return ++pos, true;
            if (s[pos++] != ',')
                return false;
        }
    }

    bool
    value()
    {
        skipSpace();
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{':
            return sequence('}', true);
          case '[':
            return sequence(']', false);
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s;
    std::size_t pos = 0;
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The files in @p dir ending in @p suffix. */
std::vector<fs::path>
filesEndingIn(const fs::path &dir, const std::string &suffix)
{
    std::vector<fs::path> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().string().ends_with(suffix))
            out.push_back(entry.path());
    }
    return out;
}

std::vector<ExperimentConfig>
batch()
{
    std::vector<ExperimentConfig> configs;
    for (Arch arch : {Arch::ActiveDisk, Arch::Cluster, Arch::Smp}) {
        ExperimentConfig config;
        config.arch = arch;
        config.task = TaskKind::GroupBy;
        config.scale = 4;
        configs.push_back(config);
        // A faulted run adds the fault counters and detector
        // observations to the session.
        config.task = TaskKind::Select;
        config.faults = "seed=3,disk.media.rate=1e-3,net.drop.rate=1e-3,"
                        "stop.disk=1,stop.at.ms=500,stop.restart.ms=1500,"
                        "hb.period.ms=5,rebuild.rate.mbs=64";
        configs.push_back(config);
    }
    return configs;
}

} // namespace

TEST(ObsRunner, ParallelSessionsWriteOneFileEachAndMatchSerial)
{
    unsetenv("HOWSIM_TRACE_DIR");
    unsetenv("HOWSIM_METRICS");
    unsetenv("HOWSIM_TRACE_DETAIL");
    const std::vector<ExperimentConfig> configs = batch();
    std::vector<tasks::TaskResult> serial = core::runExperiments(configs, 1);

    fs::path root = fs::temp_directory_path() / "howsim_obs_runner";
    fs::remove_all(root);
    fs::path metricsDir = root / "metrics";
    fs::path traceDir = root / "trace";
    setenv("HOWSIM_METRICS", metricsDir.c_str(), 1);
    setenv("HOWSIM_TRACE_DIR", traceDir.c_str(), 1);
    std::vector<tasks::TaskResult> observed
        = core::runExperiments(configs, 4);
    unsetenv("HOWSIM_METRICS");
    unsetenv("HOWSIM_TRACE_DIR");

    ASSERT_EQ(observed.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("config #" + std::to_string(i));
        EXPECT_EQ(observed[i].elapsedTicks, serial[i].elapsedTicks);
        EXPECT_EQ(observed[i].interconnectBytes,
                  serial[i].interconnectBytes);
        EXPECT_EQ(observed[i].outputBytes, serial[i].outputBytes);
        EXPECT_EQ(observed[i].buckets.all(), serial[i].buckets.all());
        EXPECT_EQ(observed[i].availability.rebuiltBytes,
                  serial[i].availability.rebuiltBytes);
    }

    auto metrics = filesEndingIn(metricsDir, ".metrics.json");
    auto traces = filesEndingIn(traceDir, ".trace.json");
    EXPECT_EQ(metrics.size(), configs.size());
    EXPECT_EQ(traces.size(), configs.size());
    for (const fs::path &p : metrics) {
        std::string json = slurp(p);
        EXPECT_TRUE(JsonChecker(json).wellFormed()) << p;
        EXPECT_NE(json.find("\"sim.events_executed\""), std::string::npos)
            << p;
    }
    for (const fs::path &p : traces) {
        std::string json = slurp(p);
        EXPECT_TRUE(JsonChecker(json).wellFormed()) << p;
        EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << p;
    }
    fs::remove_all(root);
}
