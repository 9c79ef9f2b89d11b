/**
 * @file
 * Transfer-policy names that perfbench/ still compiles against. The
 * interconnect has one transfer engine, the calendar Bus (bus.hh)
 * and the Network's per-frame walker built on it; nothing in src/
 * reads these names.
 */

#ifndef HOWSIM_BUS_XFER_HH
#define HOWSIM_BUS_XFER_HH

namespace howsim::bus
{

/** The one transfer engine; exists only for perfbench/. */
enum class XferPolicy
{
    Calendar,
};

/** Short name of @p policy; exists only for perfbench/. */
constexpr const char *
xferPolicyName(XferPolicy)
{
    return "calendar";
}

/** The only policy; exists only for perfbench/. */
constexpr XferPolicy
defaultXferPolicy()
{
    return XferPolicy::Calendar;
}

} // namespace howsim::bus

#endif // HOWSIM_BUS_XFER_HH
