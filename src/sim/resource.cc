#include "sim/resource.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::sim
{

Resource::Resource(std::int64_t capacity) : cap(capacity), avail(capacity)
{
    if (capacity <= 0)
        panic("Resource capacity must be positive");
}

Resource::~Resource()
{
    for (AcquireOp *op : waiters)
        op->enqueued = false;
    // Only deregister while the session we registered with is still
    // installed; once it unwinds, its dump() already cleared probes.
    if (obsSess && obs::session() == obsSess)
        obsSess->timeline().dropProbes(this);
}

void
Resource::observe(const std::string &name, bool probes)
{
    obs::Session *s = obs::session();
    if (!s)
        return;
    obsSess = s;
    obsWait = &s->metrics().histogram(name + ".wait_ticks");
    obsDepth = &s->metrics().histogram(name + ".queue_depth");
    if (!probes)
        return;
    s->timeline().probe(
        name + ".queue_len",
        [this] { return static_cast<double>(waiters.size()); }, this);
    s->timeline().probe(
        name + ".in_use",
        [this] { return static_cast<double>(cap - avail); }, this);
}

Resource::AcquireOp
Resource::acquire(std::int64_t n)
{
    return AcquireOp(this, n);
}

void
Resource::noteAcquire(std::int64_t n)
{
    Simulator *s = Simulator::current();
    Tick now = s ? s->now() : 0;
    busyUnitTicks += static_cast<std::uint64_t>(cap - avail)
                     * (now - lastChange);
    lastChange = now;
    avail -= n;
}

void
Resource::release(std::int64_t n)
{
    Simulator *s = Simulator::current();
    Tick now = s ? s->now() : 0;
    busyUnitTicks += static_cast<std::uint64_t>(cap - avail)
                     * (now - lastChange);
    lastChange = now;
    avail += n;
    if (avail > cap)
        panic("Resource over-release: avail %lld > cap %lld",
              static_cast<long long>(avail), static_cast<long long>(cap));
    grantWaiters();
}

void
Resource::grantWaiters()
{
    Simulator *s = Simulator::current();
    while (!waiters.empty() && waiters.front()->n <= avail) {
        AcquireOp *op = waiters.front();
        waiters.pop_front();
        noteAcquire(op->n);
        op->granted = true;
        if (s) {
            Tick waited = s->now() - op->enqueueTick;
            waitTicks += waited;
            if (obsWait)
                obsWait->sample(waited);
            s->scheduleAt(s->now(), op->waiting);
        }
    }
}

Resource::AcquireOp::AcquireOp(Resource *r, std::int64_t amount)
    : res(r), n(amount)
{
    if (n <= 0 || n > res->cap)
        panic("Resource acquire of %lld units (capacity %lld)",
              static_cast<long long>(n),
              static_cast<long long>(res->cap));
}

Resource::AcquireOp::~AcquireOp()
{
    if (enqueued && !granted)
        std::erase(res->waiters, this);
}

bool
Resource::AcquireOp::await_ready()
{
    if (res->waiters.empty() && res->avail >= n) {
        res->noteAcquire(n);
        granted = true;
        if (res->obsWait)
            res->obsWait->sample(0);
        return true;
    }
    return false;
}

void
Resource::AcquireOp::await_suspend(std::coroutine_handle<> h)
{
    waiting = h;
    enqueued = true;
    Simulator *s = Simulator::current();
    enqueueTick = s ? s->now() : 0;
    res->waiters.push_back(this);
    if (res->obsDepth)
        res->obsDepth->sample(res->waiters.size());
}

void
Resource::AcquireOp::await_resume()
{
}

} // namespace howsim::sim
