#include "bus/bus.hh"

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace howsim::bus
{

Bus::Bus(sim::Simulator &s, BusParams params)
    : busParams(std::move(params)), channels(s, busParams.channels)
{
    if (busParams.channels <= 0)
        panic("Bus '%s': channels must be positive",
              busParams.name.c_str());
    if (busParams.channelRate <= 0)
        panic("Bus '%s': channelRate must be positive",
              busParams.name.c_str());
    if (obs::Session *session = obs::session()) {
        obs::Scope scope(session->metrics(), busParams.name);
        sim::Calendar::Hooks hooks{&scope.counter("bytes"),
                                   &scope.counter("transfers")};
        if (busParams.probeTimeline) {
            obsSess = session;
            hooks.wait = &session->metrics().histogram(busParams.name
                                                       + ".wait_ticks");
            hooks.depth = &session->metrics().histogram(
                busParams.name + ".queue_depth");
            session->timeline().probe(
                busParams.name + ".queue_len",
                [this] {
                    return static_cast<double>(channels.queueLength());
                },
                this);
            session->timeline().probe(
                busParams.name + ".in_use",
                [this] { return static_cast<double>(channels.inUse()); },
                this);
        }
        channels.observe(hooks);
    }
}

Bus::~Bus()
{
    // Only deregister while the session we registered with is still
    // installed; once it unwinds, its dump() already cleared probes.
    if (obsSess && obs::session() == obsSess)
        obsSess->timeline().dropProbes(this);
}

Bus::Transfer
Bus::transfer(std::uint64_t bytes)
{
    return Transfer(this, bytes);
}

} // namespace howsim::bus
