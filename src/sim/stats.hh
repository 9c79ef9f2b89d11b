/**
 * @file
 * Lightweight statistics containers used across the simulator.
 */

#ifndef HOWSIM_SIM_STATS_HH
#define HOWSIM_SIM_STATS_HH

#include <map>
#include <string>

namespace howsim::sim
{

/**
 * Named accumulation buckets, used for execution-time breakdowns
 * (e.g. the per-phase decomposition of Figure 3) and byte counters.
 */
class Breakdown
{
  public:
    /** Add @p amount to bucket @p name (created on first use). */
    void
    add(const std::string &name, double amount)
    {
        buckets[name] += amount;
    }

    /** Value of bucket @p name; 0 when absent. */
    double
    get(const std::string &name) const
    {
        auto it = buckets.find(name);
        return it == buckets.end() ? 0.0 : it->second;
    }

    /** Sum over all buckets. */
    double
    total() const
    {
        double sum = 0.0;
        for (const auto &[name, v] : buckets)
            sum += v;
        return sum;
    }

    /** Merge @p other into this breakdown. */
    void
    merge(const Breakdown &other)
    {
        for (const auto &[name, v] : other.buckets)
            buckets[name] += v;
    }

    const std::map<std::string, double> &all() const { return buckets; }

    void clear() { buckets.clear(); }

  private:
    std::map<std::string, double> buckets;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_STATS_HH
