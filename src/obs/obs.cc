#include "obs/obs.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace howsim::obs
{

namespace detail_tls
{
constinit thread_local Session *tlsSession = nullptr;
} // namespace detail_tls

Session::Session(std::string label, Options options)
    : name(std::move(label)), opts(std::move(options)),
      sampler(sink, opts.sampleInterval)
{
    prev = detail_tls::tlsSession;
    detail_tls::tlsSession = this;
}

Session::~Session()
{
    dump();
    detail_tls::tlsSession = prev;
}

std::unique_ptr<Session>
Session::fromEnv(std::string label)
{
    if (!compiledIn())
        return nullptr;
    const char *traceDir = std::getenv("HOWSIM_TRACE_DIR");
    const char *metricsDir = std::getenv("HOWSIM_METRICS");
    if (!traceDir && !metricsDir)
        return nullptr;

    Options opts;
    if (traceDir)
        opts.traceDir = traceDir;
    if (metricsDir)
        opts.metricsDir = metricsDir;
    if (const char *detail = std::getenv("HOWSIM_TRACE_DETAIL")) {
        if (std::strcmp(detail, "fine") == 0)
            opts.detail = Detail::Fine;
    }
    if (const char *us = std::getenv("HOWSIM_OBS_INTERVAL_US")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(us, &end, 10);
        if (end == us || *end != '\0' || v == 0) {
            // obs sits below sim in the layering, so it cannot call
            // sim's fatal(); same contract (message + exit 1).
            std::fprintf(stderr,
                         "fatal: invalid HOWSIM_OBS_INTERVAL_US="
                         "\"%s\": expected a positive integer "
                         "microsecond interval\n",
                         us);
            std::exit(1);
        }
        opts.sampleInterval = sim::microseconds(v);
    }
    return std::make_unique<Session>(std::move(label),
                                     std::move(opts));
}

namespace
{

/** Open <dir>/<label><suffix> for writing, creating @p dir. */
std::ofstream
openOutput(const std::string &dir, const std::string &label,
           const char *suffix)
{
    std::error_code ec;
    // Racy mkdir between parallel workers is fine; only report a
    // directory that is truly unusable.
    std::filesystem::create_directories(dir, ec);
    std::filesystem::path path =
        std::filesystem::path(dir) / (label + suffix);
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "howsim: obs: cannot write %s\n",
                     path.string().c_str());
    }
    return out;
}

} // namespace

void
Session::dump()
{
    if (dumped)
        return;
    dumped = true;

    // Flush any probe values that changed since the last due sample,
    // then drop the probes so their owners may be destroyed.
    sampler.sampleNow(now());
    sampler.clearProbes();

    if (!opts.traceDir.empty()) {
        std::ofstream out =
            openOutput(opts.traceDir, name, ".trace.json");
        if (out)
            sink.writeJson(out, name);
    }
    if (!opts.metricsDir.empty()) {
        std::ofstream out =
            openOutput(opts.metricsDir, name, ".metrics.json");
        if (out)
            out << registry.toJson();
    }
}

} // namespace howsim::obs
