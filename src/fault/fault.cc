#include "fault/fault.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::fault
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
unitDraw(std::uint64_t seed, std::uint64_t site, std::uint64_t seq,
         std::uint64_t draw)
{
    std::uint64_t h = mix64(mix64(mix64(mix64(seed) ^ site) ^ seq)
                            ^ draw);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

namespace
{

thread_local Injector *tlsInjector = nullptr;

constexpr SpecReader kSpec{"fault"};

double
parseRate(const std::string &key, const std::string &value)
{
    double v = kSpec.number(key, value);
    if (v < 0.0 || v > 1.0)
        fatal("fault spec: %s=%g must be a probability in [0, 1]",
              key.c_str(), v);
    return v;
}

/** "1+4+7" -> sorted, deduplicated victim indices, each >= 0. */
std::vector<int>
parseVictimList(const std::string &key, const std::string &value)
{
    std::vector<int> victims;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        std::size_t plus = value.find('+', pos);
        if (plus == std::string::npos)
            plus = value.size();
        std::string item = value.substr(pos, plus - pos);
        pos = plus + 1;
        if (item.empty())
            fatal("fault spec: %s=\"%s\" has an empty victim entry "
                  "(expected '+'-separated indices, e.g. 1+4+7)",
                  key.c_str(), value.c_str());
        long v = kSpec.integer(key, item);
        if (v < 0)
            fatal("fault spec: %s victim %ld must be >= 0",
                  key.c_str(), v);
        victims.push_back(static_cast<int>(v));
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()),
                  victims.end());
    return victims;
}

} // namespace

void
SpecReader::forEach(
    const std::string &spec,
    const std::function<void(const std::string &, const std::string &)>
        &item) const
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string kv = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (kv.empty())
            continue;
        std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            fatal("%s spec: \"%s\" is not key=value", kind, kv.c_str());
        item(kv.substr(0, eq), kv.substr(eq + 1));
    }
}

double
SpecReader::number(const std::string &key, const std::string &value) const
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("%s spec: %s=\"%s\" is not a number", kind, key.c_str(),
              value.c_str());
    // NaN slips past every range check; infinity overflows the tick
    // conversions.
    if (!std::isfinite(v))
        fatal("%s spec: %s=%s is not finite", kind, key.c_str(),
              value.c_str());
    return v;
}

long
SpecReader::integer(const std::string &key, const std::string &value) const
{
    char *end = nullptr;
    long v = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        fatal("%s spec: %s=\"%s\" is not an integer", kind, key.c_str(),
              value.c_str());
    return v;
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    kSpec.forEach(spec, [&](const std::string &key,
                            const std::string &value) {
        if (key == "seed") {
            long v = kSpec.integer(key, value);
            if (v < 0)
                fatal("fault spec: seed=%ld must be >= 0", v);
            plan.seed = static_cast<std::uint64_t>(v);
        } else if (key == "disk.slow.frac") {
            plan.diskSlowFrac = parseRate(key, value);
        } else if (key == "disk.slow.factor") {
            plan.diskSlowFactor = kSpec.number(key, value);
            if (plan.diskSlowFactor < 1.0)
                fatal("fault spec: disk.slow.factor=%g must be >= 1",
                      plan.diskSlowFactor);
        } else if (key == "disk.media.rate") {
            plan.diskMediaRate = parseRate(key, value);
        } else if (key == "disk.media.retries") {
            long v = kSpec.integer(key, value);
            if (v < 1)
                fatal("fault spec: disk.media.retries=%ld must be >= 1",
                      v);
            plan.diskMediaRetries = static_cast<int>(v);
        } else if (key == "disk.remap.rate") {
            plan.diskRemapRate = parseRate(key, value);
        } else if (key == "net.drop.rate") {
            plan.netDropRate = parseRate(key, value);
        } else if (key == "net.corrupt.rate") {
            plan.netCorruptRate = parseRate(key, value);
        } else if (key == "net.retries") {
            long v = kSpec.integer(key, value);
            if (v < 1)
                fatal("fault spec: net.retries=%ld must be >= 1", v);
            plan.netRetries = static_cast<int>(v);
        } else if (key == "net.timeout.us") {
            long v = kSpec.integer(key, value);
            if (v < 1)
                fatal("fault spec: net.timeout.us=%ld must be >= 1", v);
            plan.netTimeout = sim::microseconds(
                static_cast<std::uint64_t>(v));
        } else if (key == "stop.disk") {
            plan.stopDisks = parseVictimList(key, value);
        } else if (key == "stop.rate") {
            plan.stopRate = parseRate(key, value);
        } else if (key == "stop.at.ms") {
            double v = kSpec.number(key, value);
            if (v < 0.0)
                fatal("fault spec: stop.at.ms=%g must be >= 0", v);
            plan.stopAt = sim::fromSeconds(v * 1e-3);
        } else if (key == "stop.restart.ms") {
            double v = kSpec.number(key, value);
            if (v <= 0.0)
                fatal("fault spec: stop.restart.ms=%g must be > 0", v);
            plan.stopRestart = sim::fromSeconds(v * 1e-3);
        } else if (key == "hb.period.ms") {
            // At least one 1 ns tick, so the period is positive in
            // ticks.
            double v = kSpec.number(key, value);
            if (v < 1e-6)
                fatal("fault spec: hb.period.ms=%g must be >= 1e-06 "
                      "(one tick)",
                      v);
            plan.hbPeriod = sim::fromSeconds(v * 1e-3);
        } else if (key == "hb.timeout.x") {
            plan.hbTimeoutX = kSpec.number(key, value);
            if (plan.hbTimeoutX < 1.0)
                fatal("fault spec: hb.timeout.x=%g must be >= 1",
                      plan.hbTimeoutX);
        } else if (key == "rebuild.rate.mbs") {
            plan.rebuildRateMBs = kSpec.number(key, value);
            if (plan.rebuildRateMBs <= 0.0)
                fatal("fault spec: rebuild.rate.mbs=%g must be > 0",
                      plan.rebuildRateMBs);
        } else {
            fatal("fault spec: unknown key \"%s\" (accepted: seed, "
                  "disk.slow.frac, disk.slow.factor, disk.media.rate, "
                  "disk.media.retries, disk.remap.rate, net.drop.rate, "
                  "net.corrupt.rate, net.retries, net.timeout.us, "
                  "stop.disk, stop.rate, stop.at.ms, stop.restart.ms, "
                  "hb.period.ms, hb.timeout.x, rebuild.rate.mbs)",
                  key.c_str());
        }
    });
    if (plan.netDropRate + plan.netCorruptRate > 1.0)
        fatal("fault spec: net.drop.rate + net.corrupt.rate = %g "
              "exceeds 1",
              plan.netDropRate + plan.netCorruptRate);
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("HOWSIM_FAULTS");
    if (!env || !*env)
        return FaultPlan{};
    return parse(env);
}

namespace
{

/** Shortest decimal that SpecReader::number reads back to exactly @p v. */
std::string
numStr(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v))
        && v > -1e15 && v < 1e15)
        return strprintf("%lld", static_cast<long long>(v));
    for (int prec = 1; prec < 17; ++prec) {
        std::string s = strprintf("%.*g", prec, v);
        if (std::strtod(s.c_str(), nullptr) == v)
            return s;
    }
    return strprintf("%.17g", v);
}

/** Shortest decimal milliseconds that parse back to exactly @p t. */
std::string
msStr(sim::Tick t)
{
    double ms = static_cast<double>(t) / 1e6;
    if (t % 1000000 == 0)
        return strprintf("%llu",
                         static_cast<unsigned long long>(t / 1000000));
    for (int prec = 1; prec < 17; ++prec) {
        std::string s = strprintf("%.*g", prec, ms);
        double v = std::strtod(s.c_str(), nullptr);
        if (sim::fromSeconds(v * 1e-3) == t)
            return s;
    }
    return strprintf("%.17g", ms);
}

void
emit(std::string &out, const std::string &key, const std::string &val)
{
    if (!out.empty())
        out += ',';
    out += key;
    out += '=';
    out += val;
}

} // namespace

std::string
FaultPlan::toString() const
{
    const FaultPlan defaults;
    std::string out;
    if (seed != defaults.seed)
        emit(out, "seed", strprintf("%llu",
                                    (unsigned long long)seed));
    if (diskSlowFrac != defaults.diskSlowFrac)
        emit(out, "disk.slow.frac", numStr(diskSlowFrac));
    if (diskSlowFactor != defaults.diskSlowFactor)
        emit(out, "disk.slow.factor", numStr(diskSlowFactor));
    if (diskMediaRate != defaults.diskMediaRate)
        emit(out, "disk.media.rate", numStr(diskMediaRate));
    if (diskMediaRetries != defaults.diskMediaRetries)
        emit(out, "disk.media.retries",
             strprintf("%d", diskMediaRetries));
    if (diskRemapRate != defaults.diskRemapRate)
        emit(out, "disk.remap.rate", numStr(diskRemapRate));
    if (netDropRate != defaults.netDropRate)
        emit(out, "net.drop.rate", numStr(netDropRate));
    if (netCorruptRate != defaults.netCorruptRate)
        emit(out, "net.corrupt.rate", numStr(netCorruptRate));
    if (netRetries != defaults.netRetries)
        emit(out, "net.retries", strprintf("%d", netRetries));
    if (netTimeout != defaults.netTimeout)
        emit(out, "net.timeout.us",
             strprintf("%llu",
                       (unsigned long long)(netTimeout
                                            / sim::microseconds(1))));
    if (!stopDisks.empty()) {
        std::string list;
        for (int d : stopDisks) {
            if (!list.empty())
                list += '+';
            list += strprintf("%d", d);
        }
        emit(out, "stop.disk", list);
    }
    if (stopRate != defaults.stopRate)
        emit(out, "stop.rate", numStr(stopRate));
    if (stopAt != defaults.stopAt)
        emit(out, "stop.at.ms", msStr(stopAt));
    if (stopRestart != defaults.stopRestart)
        emit(out, "stop.restart.ms", msStr(stopRestart));
    if (hbPeriod != defaults.hbPeriod)
        emit(out, "hb.period.ms", msStr(hbPeriod));
    if (hbTimeoutX != defaults.hbTimeoutX)
        emit(out, "hb.timeout.x", numStr(hbTimeoutX));
    if (rebuildRateMBs != defaults.rebuildRateMBs)
        emit(out, "rebuild.rate.mbs", numStr(rebuildRateMBs));
    return out;
}

const StopSchedule::Victim *
StopSchedule::victimOf(int device) const
{
    for (const Victim &v : victims) {
        if (v.device == device)
            return &v;
    }
    return nullptr;
}

bool
StopSchedule::aliveAt(int device, sim::Tick now) const
{
    const Victim *v = victimOf(device);
    if (!v)
        return true;
    if (now < v->stopAt)
        return true;
    return v->rejoins() && now >= v->restartAt;
}

bool
StopSchedule::deathWithin(sim::Tick from, sim::Tick to) const
{
    for (const Victim &v : victims) {
        if (v.stopAt >= from && v.stopAt < to)
            return true;
    }
    return false;
}

int
StopSchedule::buddyOf(int device, int first, int count) const
{
    for (int step = 1; step < count; ++step) {
        int peer = first + (device - first + step) % count;
        if (!victimOf(peer))
            return peer;
    }
    panic("StopSchedule::buddyOf: no surviving peer in [%d, +%d)",
          first, count);
}

StopSchedule
StopSchedule::resolve(const FaultPlan &plan, int count)
{
    StopSchedule sched;
    sched.lease = plan.leaseTicks();
    if (!plan.stopConfigured())
        return sched;
    std::vector<bool> hit(static_cast<std::size_t>(count), false);
    for (int d : plan.stopDisks) {
        if (d < count)
            hit[static_cast<std::size_t>(d)] = true;
    }
    if (plan.stopRate > 0.0) {
        std::uint64_t site = siteId("stop.rate");
        for (int d = 0; d < count; ++d) {
            if (unitDraw(plan.seed, site,
                         static_cast<std::uint64_t>(d), 0)
                < plan.stopRate)
                hit[static_cast<std::size_t>(d)] = true;
        }
    }
    // Spare the highest-numbered devices until a survivor remains:
    // a schedule that kills every replica peer has no buddy to
    // redirect to (stop.rate=1 would otherwise do this).
    int survivors = 0;
    for (int d = 0; d < count; ++d)
        survivors += hit[static_cast<std::size_t>(d)] ? 0 : 1;
    for (int d = count - 1; survivors == 0 && d >= 0; --d) {
        if (hit[static_cast<std::size_t>(d)]) {
            hit[static_cast<std::size_t>(d)] = false;
            survivors = 1;
        }
    }
    sim::Tick restartAt
        = plan.stopRestart > 0 ? plan.stopAt + plan.stopRestart : 0;
    for (int d = 0; d < count; ++d) {
        if (hit[static_cast<std::size_t>(d)])
            sched.victims.push_back(
                Victim{d, plan.stopAt, restartAt});
    }
    return sched;
}

std::uint64_t
siteId(std::string_view name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
linkSite(int src, int dst)
{
    // Offset endpoints so -1 (a front-end host) stays distinct.
    std::uint64_t a = static_cast<std::uint64_t>(src + 2);
    std::uint64_t b = static_cast<std::uint64_t>(dst + 2);
    return mix64((a << 32) ^ b);
}

bool
Injector::diskIsSlow(std::uint64_t site) const
{
    if (faultPlan.diskSlowFrac <= 0.0)
        return false;
    return unitDraw(faultPlan.seed, site, 0, 0)
           < faultPlan.diskSlowFrac;
}

int
Injector::diskMediaRetryCount(std::uint64_t site,
                              std::uint64_t seq) const
{
    if (faultPlan.diskMediaRate <= 0.0)
        return 0;
    // Draw 1 decides the error; subsequent draws model rereads that
    // fail again, geometrically, up to the bound.
    int retries = 0;
    while (retries < faultPlan.diskMediaRetries
           && unitDraw(faultPlan.seed, site, seq,
                       1 + static_cast<std::uint64_t>(retries))
                  < faultPlan.diskMediaRate) {
        ++retries;
    }
    return retries;
}

bool
Injector::diskRemapHit(std::uint64_t site, std::uint64_t seq) const
{
    if (faultPlan.diskRemapRate <= 0.0)
        return false;
    // Draw index 64+: disjoint from the media-retry draw sequence.
    return unitDraw(faultPlan.seed, site, seq, 64)
           < faultPlan.diskRemapRate;
}

Injector::NetFail
Injector::netAttempt(std::uint64_t site, std::uint64_t seq,
                     int attempt) const
{
    if (attempt >= faultPlan.netRetries)
        return NetFail::None; // bounded: the last attempt delivers
    double u = unitDraw(faultPlan.seed, site, seq,
                        static_cast<std::uint64_t>(attempt));
    if (u < faultPlan.netDropRate)
        return NetFail::Drop;
    if (u < faultPlan.netDropRate + faultPlan.netCorruptRate)
        return NetFail::Corrupt;
    return NetFail::None;
}

Scope::Scope(const FaultPlan &plan)
{
    prev = tlsInjector;
    if (!plan.active())
        return;
    inj = std::make_unique<Injector>(plan);
    tlsInjector = inj.get();
    if (obs::Session *session = obs::session()) {
        obsSess = session;
        Injector *i = inj.get();
        session->timeline().probe(
            "fault.disk.events",
            [i] {
                const Counters &c = i->counters();
                return static_cast<double>(c.diskSlowRequests
                                           + c.diskMediaErrors
                                           + c.diskRemaps);
            },
            this);
        session->timeline().probe(
            "fault.net.events",
            [i] {
                const Counters &c = i->counters();
                return static_cast<double>(c.netDrops
                                           + c.netCorruptions);
            },
            this);
        session->timeline().probe(
            "fault.stop.events",
            [i] {
                const Counters &c = i->counters();
                return static_cast<double>(c.stopDeaths
                                           + c.stopRedirects
                                           + c.recoveredBlocks);
            },
            this);
    }
}

Scope::~Scope()
{
    // Only deregister while the session we registered with is still
    // installed; once it unwinds, its dump() already cleared probes.
    if (obsSess && obs::session() == obsSess)
        obsSess->timeline().dropProbes(this);
    if (inj)
        tlsInjector = prev;
}

Injector *
current()
{
    return tlsInjector;
}

LossyLinks::LossyLinks(const std::string &prefix)
{
    Injector *i = current();
    if (!i || !i->plan().netFaultsActive())
        return;
    inj = i;
    if (obs::Session *session = obs::session()) {
        obs::MetricRegistry &m = session->metrics();
        obsRetrans = &m.counter(prefix + ".fault.retransmits");
        obsDrops = &m.counter(prefix + ".fault.drops");
        obsCorrupt = &m.counter(prefix + ".fault.corruptions");
        obsAttempts = &m.histogram(prefix + ".fault.attempts");
    }
}

std::optional<sim::Tick>
LossyLinks::retry(std::uint64_t site, std::uint64_t seq, int attempt,
                  sim::Tick nack)
{
    Injector::NetFail outcome = inj->netAttempt(site, seq, attempt);
    if (outcome == Injector::NetFail::None) {
        if (attempt > 0 && obsAttempts)
            obsAttempts->sample(static_cast<std::uint64_t>(attempt + 1));
        return std::nullopt;
    }
    Counters &ctr = inj->counters();
    ++ctr.netRetransmits;
    if (obsRetrans)
        obsRetrans->add();
    if (outcome == Injector::NetFail::Drop) {
        ++ctr.netDrops;
        if (obsDrops)
            obsDrops->add();
        return inj->plan().netTimeout << std::min(attempt, 16);
    }
    ++ctr.netCorruptions;
    if (obsCorrupt)
        obsCorrupt->add();
    return nack;
}

} // namespace howsim::fault
