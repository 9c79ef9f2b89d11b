#include "traffic/plan.hh"

#include <algorithm>
#include <map>
#include <optional>

#include "fault/fault.hh"
#include "sim/logging.hh"

namespace howsim::traffic
{

namespace
{

constexpr fault::SpecReader kSpec{"traffic"};

/** The task named by the suffix of a mix./cap./share. key. */
workload::TaskKind
parseTask(const std::string &key, const std::string &suffix)
{
    for (workload::TaskKind k : workload::allTasks) {
        if (workload::taskName(k) == suffix)
            return k;
    }
    fatal("traffic spec: %s names unknown task \"%s\" (accepted: "
          "select, aggregate, groupby, sort, dcube, join, dmine, "
          "mview)",
          key.c_str(), suffix.c_str());
}

/** Semicolon-separated nondecreasing millisecond instants. */
std::vector<sim::Tick>
parseTraceMs(const std::string &key, const std::string &value)
{
    std::vector<sim::Tick> out;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        std::size_t semi = value.find(';', pos);
        if (semi == std::string::npos)
            semi = value.size();
        std::string item = value.substr(pos, semi - pos);
        pos = semi + 1;
        if (item.empty())
            continue;
        double ms = kSpec.number(key, item);
        if (ms < 0.0)
            fatal("traffic spec: trace.ms instant %g must be >= 0",
                  ms);
        sim::Tick t = sim::fromSeconds(ms * 1e-3);
        if (!out.empty() && t < out.back()) {
            fatal("traffic spec: trace.ms instants must be "
                  "nondecreasing (%g ms after %g ms)",
                  ms, sim::toMilliseconds(out.back()));
        }
        out.push_back(t);
    }
    if (out.empty())
        fatal("traffic spec: trace.ms=\"%s\" lists no instants",
              value.c_str());
    return out;
}

} // namespace

double
TrafficPlan::totalWeight() const
{
    double sum = 0.0;
    for (const ClassSpec &c : classes)
        sum += c.weight;
    return sum;
}

TrafficPlan
TrafficPlan::parse(const std::string &spec)
{
    TrafficPlan plan;
    // Per-task attributes arrive in any order; assembled into
    // plan.classes in canonical task order at the end so the class
    // index never depends on key order.
    std::map<workload::TaskKind, double> mix;
    std::map<workload::TaskKind, double> caps;
    std::map<workload::TaskKind, double> shares;
    bool sawRate = false;
    bool sawClients = false;
    bool sawThink = false;
    bool sawArrival = false;
    bool sawDuration = false;

    kSpec.forEach(spec, [&](const std::string &key,
                            const std::string &value) {
        if (key == "seed") {
            long v = kSpec.integer(key, value);
            if (v < 0)
                fatal("traffic spec: seed=%ld must be >= 0", v);
            plan.seed = static_cast<std::uint64_t>(v);
        } else if (key == "loop") {
            if (value == "open")
                plan.loop = LoopMode::Open;
            else if (value == "closed")
                plan.loop = LoopMode::Closed;
            else
                fatal("traffic spec: loop=\"%s\" (accepted: open, "
                      "closed)",
                      value.c_str());
        } else if (key == "arrival") {
            sawArrival = true;
            if (value == "poisson")
                plan.arrival = ArrivalKind::Poisson;
            else if (value == "uniform")
                plan.arrival = ArrivalKind::Uniform;
            else if (value == "trace")
                plan.arrival = ArrivalKind::Trace;
            else
                fatal("traffic spec: arrival=\"%s\" (accepted: "
                      "poisson, uniform, trace)",
                      value.c_str());
        } else if (key == "rate") {
            sawRate = true;
            plan.ratePerSec = kSpec.number(key, value);
            if (plan.ratePerSec <= 0.0)
                fatal("traffic spec: rate=%g queries/s must be > 0",
                      plan.ratePerSec);
        } else if (key == "trace.ms") {
            plan.trace = parseTraceMs(key, value);
        } else if (key == "clients") {
            sawClients = true;
            long v = kSpec.integer(key, value);
            if (v < 1)
                fatal("traffic spec: clients=%ld must be >= 1", v);
            plan.clients = static_cast<int>(v);
        } else if (key == "think.ms") {
            sawThink = true;
            double v = kSpec.number(key, value);
            if (v < 0.0)
                fatal("traffic spec: think.ms=%g must be >= 0", v);
            plan.thinkMean = sim::fromSeconds(v * 1e-3);
        } else if (key == "duration.ms") {
            sawDuration = true;
            double v = kSpec.number(key, value);
            if (v <= 0.0)
                fatal("traffic spec: duration.ms=%g must be > 0", v);
            plan.duration = sim::fromSeconds(v * 1e-3);
        } else if (key == "policy") {
            if (value == "fifo")
                plan.policy = PolicyKind::Fifo;
            else if (value == "fair")
                plan.policy = PolicyKind::Fair;
            else
                fatal("traffic spec: policy=\"%s\" (accepted: fifo, "
                      "fair)",
                      value.c_str());
        } else if (key == "max.inflight") {
            long v = kSpec.integer(key, value);
            if (v < 1)
                fatal("traffic spec: max.inflight=%ld must be >= 1",
                      v);
            plan.maxInflight = static_cast<int>(v);
        } else if (key == "max.queue") {
            long v = kSpec.integer(key, value);
            if (v < -1)
                fatal("traffic spec: max.queue=%ld must be >= -1 "
                      "(-1 = unbounded)",
                      v);
            plan.maxQueue = static_cast<int>(v);
        } else if (key == "slo.ms") {
            double v = kSpec.number(key, value);
            if (v <= 0.0)
                fatal("traffic spec: slo.ms=%g must be > 0", v);
            plan.slo = sim::fromSeconds(v * 1e-3);
        } else if (key.starts_with("mix.")) {
            workload::TaskKind k = parseTask(key, key.substr(4));
            double w = kSpec.number(key, value);
            if (w <= 0.0)
                fatal("traffic spec: %s=%g must be > 0", key.c_str(),
                      w);
            mix[k] = w;
        } else if (key.starts_with("cap.")) {
            workload::TaskKind k = parseTask(key, key.substr(4));
            double f = kSpec.number(key, value);
            if (f <= 0.0 || f > 1.0)
                fatal("traffic spec: %s=%g must be in (0, 1]",
                      key.c_str(), f);
            caps[k] = f;
        } else if (key.starts_with("share.")) {
            workload::TaskKind k = parseTask(key, key.substr(6));
            double w = kSpec.number(key, value);
            if (w <= 0.0)
                fatal("traffic spec: %s=%g must be > 0", key.c_str(),
                      w);
            shares[k] = w;
        } else {
            fatal("traffic spec: unknown key \"%s\" (accepted: seed, "
                  "loop, arrival, rate, trace.ms, clients, think.ms, "
                  "duration.ms, policy, max.inflight, max.queue, "
                  "slo.ms, mix.<task>, cap.<task>, share.<task>)",
                  key.c_str());
        }
    });

    if (!sawDuration)
        fatal("traffic spec: duration.ms is required");

    if (plan.loop == LoopMode::Open) {
        if (sawClients || sawThink) {
            fatal("traffic spec: clients/think.ms only apply to "
                  "loop=closed");
        }
        if (plan.arrival == ArrivalKind::Trace) {
            if (sawRate)
                fatal("traffic spec: rate conflicts with "
                      "arrival=trace (instants come from trace.ms)");
            if (plan.trace.empty())
                fatal("traffic spec: arrival=trace requires "
                      "trace.ms");
        } else {
            if (!plan.trace.empty())
                fatal("traffic spec: trace.ms requires "
                      "arrival=trace");
            if (!sawRate)
                fatal("traffic spec: loop=open needs rate (or "
                      "arrival=trace with trace.ms)");
        }
    } else {
        if (sawRate || sawArrival || !plan.trace.empty()) {
            fatal("traffic spec: rate/arrival/trace.ms only apply "
                  "to loop=open (closed-loop load is clients + "
                  "think.ms)");
        }
        if (!sawClients)
            fatal("traffic spec: loop=closed needs clients");
    }

    if (mix.empty() && (!caps.empty() || !shares.empty())) {
        fatal("traffic spec: cap./share. need an explicit mix. "
              "entry for the task (default mix is select only)");
    }
    if (mix.empty())
        mix[workload::TaskKind::Select] = 1.0;
    for (const auto &[k, f] : caps) {
        if (!mix.contains(k))
            fatal("traffic spec: cap.%s given but %s is not in the "
                  "mix",
                  workload::taskName(k).c_str(),
                  workload::taskName(k).c_str());
    }
    for (const auto &[k, w] : shares) {
        if (!mix.contains(k))
            fatal("traffic spec: share.%s given but %s is not in "
                  "the mix",
                  workload::taskName(k).c_str(),
                  workload::taskName(k).c_str());
    }
    for (workload::TaskKind k : workload::allTasks) {
        auto it = mix.find(k);
        if (it == mix.end())
            continue;
        ClassSpec c;
        c.task = k;
        c.weight = it->second;
        if (auto f = caps.find(k); f != caps.end())
            c.cap = f->second;
        if (auto s = shares.find(k); s != shares.end())
            c.share = s->second;
        plan.classes.push_back(c);
    }
    return plan;
}

std::string
loopName(LoopMode mode)
{
    switch (mode) {
      case LoopMode::Open:
        return "open";
      case LoopMode::Closed:
        return "closed";
    }
    panic("unknown LoopMode");
}

std::string
arrivalName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Uniform:
        return "uniform";
      case ArrivalKind::Trace:
        return "trace";
    }
    panic("unknown ArrivalKind");
}

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Fifo:
        return "fifo";
      case PolicyKind::Fair:
        return "fair";
    }
    panic("unknown PolicyKind");
}

workload::DatasetSpec
scaledDataset(workload::TaskKind kind, double cap)
{
    workload::DatasetSpec d = workload::DatasetSpec::forTask(kind);
    if (cap >= 1.0)
        return d;
    auto scale = [cap](std::uint64_t v) {
        return static_cast<std::uint64_t>(
            static_cast<double>(v) * cap + 0.5);
    };
    // Keep the input a whole number of tuples and big enough that
    // every drive of the largest configuration still sees work.
    constexpr std::uint64_t kFloor = 8ull << 20;
    std::uint64_t bytes = std::max(scale(d.inputBytes), kFloor);
    if (d.tupleBytes > 0) {
        bytes -= bytes % d.tupleBytes;
        d.tupleCount = bytes / d.tupleBytes;
    }
    d.inputBytes = bytes;
    if (d.distinctGroups > 0)
        d.distinctGroups = std::max<std::uint64_t>(
            std::min(d.distinctGroups, d.tupleCount), 1);
    if (d.transactions > 0)
        d.transactions = std::max<std::uint64_t>(
            scale(d.transactions), 1);
    if (d.derivedBytes > 0)
        d.derivedBytes = std::max(scale(d.derivedBytes), kFloor);
    if (d.deltaBytes > 0)
        d.deltaBytes = std::max<std::uint64_t>(scale(d.deltaBytes),
                                               64 << 10);
    return d;
}

} // namespace howsim::traffic
