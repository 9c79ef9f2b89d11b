#include "tasks/smp_tasks.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"
#include "workload/task_kind.hh"
#include "workload/dcube_plan.hh"
#include "workload/estimate.hh"
#include "workload/sort_plan.hh"
#include "workload/task_plans.hh"

namespace howsim::tasks
{

using sim::Coro;
using sim::Tick;
using smp::DiskGroup;
using workload::DatasetSpec;
using workload::TaskKind;

namespace
{

constexpr std::uint64_t kBlock = 256 * 1024;

std::uint64_t
blocksOf(std::uint64_t bytes)
{
    return (bytes + kBlock - 1) / kBlock;
}

} // namespace

SmpTaskRunner::SmpTaskRunner(sim::Simulator &s, smp::SmpMachine &machine_,
                             workload::CostModel costs)
    : simulator(s), machine(machine_), cm(costs)
{
}

ChargedCompute
SmpTaskRunner::computeIn(int p, const char *bucket, Tick ref_ticks)
{
    static constexpr ComputeTrack track{"cpu%d", "compute"};
    return ChargedCompute(machine.cpu(p).compute(ref_ticks),
                          result.buckets, bucket, track, p);
}

Coro<void>
SmpTaskRunner::scanWorker(int p, Queues *qs, const DatasetSpec &data,
                          TaskKind kind)
{
    Tick per_tuple = 0;
    bool remote_hash = false;
    switch (kind) {
      case TaskKind::Select:
        per_tuple = cm.selectPredicate
                    + static_cast<Tick>(data.selectivity
                                        * static_cast<double>(
                                            cm.selectEmit));
        break;
      case TaskKind::Aggregate:
        per_tuple = cm.aggregateUpdate;
        break;
      case TaskKind::GroupBy:
        per_tuple = cm.groupbyHash;
        remote_hash = true;
        break;
      default:
        panic("scanWorker: unsupported task");
    }

    auto *queue = (*qs)[0].get();
    const int n = cpus();
    for (;;) {
        std::int64_t idx = co_await queue->next();
        if (idx < 0)
            break;
        std::uint64_t off = static_cast<std::uint64_t>(idx) * kBlock;
        std::uint64_t sz = std::min<std::uint64_t>(
            kBlock, data.inputBytes - off);
        co_await machine.io(machine.allDisks(), off, sz, false);
        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(p, "scan.cpu", tuples * per_tuple);
        // Every claimed block contributes to the result regardless
        // of which drive served it (fail-stop redirects included).
        result.outputBytes += sz;
        if (remote_hash) {
            // Distributed hash table: updates land on the board
            // owning the key's bucket.
            int dst = static_cast<int>(idx) % n;
            co_await machine.blockTransfer(p, dst, sz);
        }
    }
    co_await barrier();
}

Coro<void>
SmpTaskRunner::sortWorker(int p, Queues *qs, const DatasetSpec &data)
{
    const int n = cpus();
    const int half_disks = std::max(machine.diskCount() / 2, 1);
    DiskGroup read_group{0, half_disks};
    DiskGroup write_group{half_disks,
                          machine.diskCount() - half_disks};
    if (write_group.diskCount == 0)
        write_group = read_group;

    const std::uint64_t mem_per_proc
        = totalMemory(n) / static_cast<std::uint64_t>(n);
    const std::uint64_t my_share = data.inputBytes
                                   / static_cast<std::uint64_t>(n);
    auto plan = workload::SortPlan::plan(my_share, mem_per_proc,
                                         data.tupleBytes);
    const std::uint64_t my_run_base = static_cast<std::uint64_t>(p)
                                      * my_share;

    // Phase 1: claim input blocks, partition, move to the owning
    // board, build and write runs.
    auto *queue = (*qs)[0].get();
    std::uint64_t run_acc = 0, written = 0;
    for (;;) {
        std::int64_t idx = co_await queue->next();
        if (idx < 0)
            break;
        std::uint64_t off = static_cast<std::uint64_t>(idx) * kBlock;
        std::uint64_t sz = std::min<std::uint64_t>(
            kBlock, data.inputBytes - off);
        co_await machine.io(read_group, off, sz, false);
        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(p, "p1.partitioner",
                           tuples * cm.sortPartition);
        int dst = static_cast<int>(idx) % n;
        co_await machine.blockTransfer(p, dst, sz);
        co_await computeIn(p, "p1.append", tuples * cm.sortAppend);
        run_acc += sz;
        if (run_acc >= plan.runBytes) {
            std::uint64_t run_tuples = run_acc / data.tupleBytes;
            co_await computeIn(p, "p1.sort",
                               run_tuples
                                   * cm.sortRunPerTuple(plan.runTuples));
            co_await machine.io(write_group, my_run_base + written,
                                run_acc, true);
            written += run_acc;
            run_acc = 0;
        }
    }
    if (run_acc > 0) {
        std::uint64_t run_tuples = run_acc / data.tupleBytes;
        co_await computeIn(p, "p1.sort",
                           run_tuples
                               * cm.sortRunPerTuple(plan.runTuples));
        co_await machine.io(write_group, my_run_base + written, run_acc,
                            true);
        written += run_acc;
        run_acc = 0;
    }
    co_await barrier();

    // Phase 2: merge this processor's runs back onto the read group.
    const std::uint64_t runs = std::max<std::uint64_t>(
        (written + plan.runBytes - 1) / plan.runBytes, 1);
    std::uint64_t chunk = std::max<std::uint64_t>(
        kBlock, plan.runBytes / runs);
    chunk = std::min<std::uint64_t>(chunk, 1 << 20);
    std::uint64_t remaining = written, pos = 0;
    while (remaining > 0) {
        std::uint64_t sz = std::min(chunk, remaining);
        co_await machine.io(write_group, my_run_base + pos, sz, false);
        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(p, "p2.merge",
                           tuples * cm.sortMergePerTuple(runs));
        co_await machine.io(read_group, my_run_base + pos, sz, true);
        pos += sz;
        remaining -= sz;
    }
    co_await barrier();
}

Coro<void>
SmpTaskRunner::joinWorker(int p, Queues *qs, const DatasetSpec &data)
{
    const int n = cpus();
    auto plan = workload::JoinPlan::plan(
        data, n,
        totalMemory(n) / static_cast<std::uint64_t>(n));
    const int half_disks = std::max(machine.diskCount() / 2, 1);
    DiskGroup read_group{0, half_disks};
    DiskGroup write_group{half_disks,
                          machine.diskCount() - half_disks};
    if (write_group.diskCount == 0)
        write_group = read_group;

    const double shrink = static_cast<double>(plan.projectedBytes)
                          / static_cast<double>(plan.relationBytes);
    const std::uint64_t my_part = plan.projectedBytes
                                  / static_cast<std::uint64_t>(n);
    const std::uint64_t my_base = static_cast<std::uint64_t>(p)
                                  * my_part;

    // Phases 1-2: scan, project, partition each relation; projected
    // partitions are written to the write group.
    for (int rel = 0; rel < 2; ++rel) {
        auto *queue = (*qs)[static_cast<std::size_t>(rel)].get();
        std::uint64_t rel_base = rel == 0 ? 0 : plan.relationBytes;
        std::uint64_t part_base = my_base
                                  + (rel == 0 ? 0
                                              : plan.projectedBytes);
        std::uint64_t out_acc = 0, out_off = 0;
        for (;;) {
            std::int64_t idx = co_await queue->next();
            if (idx < 0)
                break;
            std::uint64_t off = static_cast<std::uint64_t>(idx)
                                * kBlock;
            std::uint64_t sz = std::min<std::uint64_t>(
                kBlock, plan.relationBytes - off);
            co_await machine.io(read_group, rel_base + off, sz, false);
            std::uint64_t tuples = sz / data.tupleBytes;
            co_await computeIn(p, "p1.partitioner",
                               tuples
                                   * (cm.joinProject
                                      + cm.joinPartition));
            int dst = static_cast<int>(idx) % n;
            std::uint64_t moved = static_cast<std::uint64_t>(
                static_cast<double>(sz) * shrink);
            co_await machine.blockTransfer(p, dst, moved);
            out_acc += moved;
            while (out_acc >= kBlock) {
                co_await machine.io(write_group, part_base + out_off,
                                    kBlock, true);
                out_off += kBlock;
                out_acc -= kBlock;
            }
        }
        if (out_acc > 0) {
            co_await machine.io(write_group, part_base + out_off,
                                out_acc, true);
        }
        co_await barrier();
    }

    // Phase 3: read both projected partitions, build/probe, write
    // the result back onto the read group.
    std::uint64_t out_off = 0;
    for (int rel = 0; rel < 2; ++rel) {
        std::uint64_t part_base = my_base
                                  + (rel == 0 ? 0
                                              : plan.projectedBytes);
        std::uint64_t off = 0;
        while (off < my_part) {
            std::uint64_t sz = std::min<std::uint64_t>(kBlock,
                                                       my_part - off);
            co_await machine.io(write_group, part_base + off, sz,
                                false);
            std::uint64_t tuples = sz / data.projectedTupleBytes;
            co_await computeIn(p,
                               rel == 0 ? "p3.build" : "p3.probe",
                               tuples
                                   * (rel == 0 ? cm.joinBuild
                                               : cm.joinProbe));
            if (rel == 1) {
                std::uint64_t out = sz / 2;
                co_await machine.io(read_group, my_base + out_off, out,
                                    true);
                out_off += out;
            }
            off += sz;
        }
    }
    co_await barrier();
}

Coro<void>
SmpTaskRunner::dcubeWorker(int p, Queues *qs, const DatasetSpec &data)
{
    const int n = cpus();
    auto plan = workload::DatacubePlan::plan(totalMemory(n), true);
    const auto &lattice = workload::DatacubePlan::lattice();
    // With every table resident in shared memory (single scan) the
    // results need not be spilled to disk.
    const bool spill_results = plan.scans.size() > 1;

    std::uint64_t write_base = data.inputBytes;
    for (std::size_t s = 0; s < plan.scans.size(); ++s) {
        auto *queue = (*qs)[s].get();
        for (;;) {
            std::int64_t idx = co_await queue->next();
            if (idx < 0)
                break;
            std::uint64_t off = static_cast<std::uint64_t>(idx)
                                * kBlock;
            std::uint64_t sz = std::min<std::uint64_t>(
                kBlock, data.inputBytes - off);
            co_await machine.io(machine.allDisks(), off, sz, false);
            std::uint64_t tuples = sz / data.tupleBytes;
            co_await computeIn(p, "scan.cpu",
                               tuples * cm.dcubeHashInsert);
            // Distributed hash updates cross the fabric.
            int dst = static_cast<int>(idx) % n;
            co_await machine.blockTransfer(p, dst, sz);
        }
        // Children pipelines plus this processor's share of the
        // result write-back.
        bool first = true;
        std::uint64_t share_total = 0;
        for (int g : plan.scans[s]) {
            const auto &gb = lattice[static_cast<std::size_t>(g)];
            std::uint64_t entries
                = gb.bytes / workload::DatacubePlan::entryBytes
                  / static_cast<std::uint64_t>(n);
            if (!first) {
                co_await computeIn(p, "scan.cpu",
                                   entries * cm.dcubeHashInsert);
            }
            first = false;
            share_total += gb.bytes / static_cast<std::uint64_t>(n);
        }
        if (spill_results) {
            std::uint64_t my_off = write_base
                                   + static_cast<std::uint64_t>(p)
                                         * share_total;
            std::uint64_t off = 0;
            while (off < share_total) {
                std::uint64_t sz = std::min<std::uint64_t>(
                    kBlock, share_total - off);
                co_await machine.io(machine.allDisks(), my_off + off,
                                    sz, true);
                off += sz;
            }
            write_base += share_total * static_cast<std::uint64_t>(n);
        }
        co_await barrier();
    }
}

Coro<void>
SmpTaskRunner::dmineWorker(int p, Queues *qs, const DatasetSpec &data)
{
    for (int pass = 0; pass < 2; ++pass) {
        auto *queue = (*qs)[static_cast<std::size_t>(pass)].get();
        for (;;) {
            std::int64_t idx = co_await queue->next();
            if (idx < 0)
                break;
            std::uint64_t off = static_cast<std::uint64_t>(idx)
                                * kBlock;
            std::uint64_t sz = std::min<std::uint64_t>(
                kBlock, data.inputBytes - off);
            co_await machine.io(machine.allDisks(), off, sz, false);
            std::uint64_t txns = sz / data.tupleBytes;
            Tick per_txn = pass == 0
                ? static_cast<Tick>(data.avgItemsPerTxn
                                    * static_cast<double>(
                                        cm.dmineItemCount))
                : cm.dmineSubsetCheck;
            co_await computeIn(p, "scan.cpu", txns * per_txn);
        }
        co_await barrier();
    }
}

Coro<void>
SmpTaskRunner::mviewWorker(int p, Queues *qs, const DatasetSpec &data)
{
    const int n = cpus();
    auto plan = workload::MviewPlan::plan(data);

    // Phase 1: deltas (repartition in memory).
    auto *qd = (*qs)[0].get();
    for (;;) {
        std::int64_t idx = co_await qd->next();
        if (idx < 0)
            break;
        std::uint64_t off = static_cast<std::uint64_t>(idx) * kBlock;
        std::uint64_t sz = std::min<std::uint64_t>(
            kBlock, plan.deltaBytes - off);
        co_await machine.io(machine.allDisks(), off, sz, false);
        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(p, "p1.partitioner",
                           tuples * cm.joinPartition);
        co_await machine.blockTransfer(p, static_cast<int>(idx) % n,
                                       sz);
    }
    co_await barrier();

    // Phase 2: base scan with semi-join movement.
    auto *qb = (*qs)[1].get();
    double semi_ratio = static_cast<double>(plan.semiJoinBytes)
                        / static_cast<double>(plan.baseScanBytes);
    for (;;) {
        std::int64_t idx = co_await qb->next();
        if (idx < 0)
            break;
        std::uint64_t off = plan.deltaBytes
                            + static_cast<std::uint64_t>(idx) * kBlock;
        std::uint64_t sz = std::min<std::uint64_t>(
            kBlock, plan.deltaBytes + plan.baseScanBytes - off);
        co_await machine.io(machine.allDisks(), off, sz, false);
        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(p, "p2.scan", tuples * cm.mviewScanFilter);
        std::uint64_t moved = static_cast<std::uint64_t>(
            static_cast<double>(sz) * semi_ratio);
        co_await machine.blockTransfer(p, static_cast<int>(idx) % n,
                                       moved);
    }
    co_await barrier();

    // Phase 3: rewrite the derived relations.
    auto *qm = (*qs)[2].get();
    const std::uint64_t derived_base = plan.deltaBytes
                                       + plan.baseScanBytes;
    const std::uint64_t new_base = derived_base + plan.derivedBytes;
    std::uint64_t apply_share = (plan.deltaBytes + plan.semiJoinBytes)
                                / static_cast<std::uint64_t>(n)
                                / data.tupleBytes;
    for (;;) {
        std::int64_t idx = co_await qm->next();
        if (idx < 0)
            break;
        std::uint64_t off = static_cast<std::uint64_t>(idx) * kBlock;
        std::uint64_t sz = std::min<std::uint64_t>(
            kBlock, plan.derivedBytes - off);
        co_await machine.io(machine.allDisks(), derived_base + off, sz,
                            false);
        co_await machine.io(machine.allDisks(), new_base + off, sz,
                            true);
    }
    co_await computeIn(p, "p3.apply", apply_share * cm.mviewDeltaApply);
    co_await barrier();
}

std::vector<sim::ProcessRef>
SmpTaskRunner::launch(TaskKind kind, const DatasetSpec &data,
                      Queues *qs)
{
    result = TaskResult{};
    const int n = cpus();
    std::vector<sim::ProcessRef> procs;

    auto add_queue = [&](std::uint64_t total_bytes) {
        qs->push_back(std::make_unique<smp::SmpMachine::SharedQueue>(
            machine,
            static_cast<std::int64_t>(blocksOf(total_bytes))));
    };

    switch (kind) {
      case TaskKind::Select:
      case TaskKind::Aggregate:
      case TaskKind::GroupBy:
        add_queue(data.inputBytes);
        for (int p = 0; p < n; ++p) {
            procs.push_back(
                simulator.spawn(scanWorker(p, qs, data, kind),
                                "smp-scan"));
        }
        break;
      case TaskKind::Sort:
        add_queue(data.inputBytes);
        for (int p = 0; p < n; ++p) {
            procs.push_back(simulator.spawn(sortWorker(p, qs, data),
                                            "smp-sort"));
        }
        break;
      case TaskKind::Join: {
        auto plan = workload::JoinPlan::plan(
            data, n,
            totalMemory(n) / static_cast<std::uint64_t>(n));
        add_queue(plan.relationBytes);
        add_queue(plan.relationBytes);
        for (int p = 0; p < n; ++p) {
            procs.push_back(simulator.spawn(joinWorker(p, qs, data),
                                            "smp-join"));
        }
        break;
      }
      case TaskKind::Datacube: {
        auto plan = workload::DatacubePlan::plan(totalMemory(n),
                                                 true);
        for (std::size_t s = 0; s < plan.scans.size(); ++s)
            add_queue(data.inputBytes);
        for (int p = 0; p < n; ++p) {
            procs.push_back(simulator.spawn(dcubeWorker(p, qs, data),
                                            "smp-dcube"));
        }
        break;
      }
      case TaskKind::Dmine:
        add_queue(data.inputBytes);
        add_queue(data.inputBytes);
        for (int p = 0; p < n; ++p) {
            procs.push_back(simulator.spawn(dmineWorker(p, qs, data),
                                            "smp-dmine"));
        }
        break;
      case TaskKind::Mview: {
        auto plan = workload::MviewPlan::plan(data);
        add_queue(plan.deltaBytes);
        add_queue(plan.baseScanBytes);
        add_queue(plan.derivedBytes);
        for (int p = 0; p < n; ++p) {
            procs.push_back(simulator.spawn(mviewWorker(p, qs, data),
                                            "smp-mview"));
        }
        break;
      }
    }
    return procs;
}

TaskResult
SmpTaskRunner::run(TaskKind kind, const DatasetSpec &data)
{
    Tick start = simulator.now();
    obs::Span taskSpan("task", workload::taskName(kind), "task");
    Queues queues;
    launch(kind, data, &queues);
    simulator.run();
    result.elapsedTicks = simulator.now() - start;
    result.interconnectBytes = machine.fcBus().stats().bytes;
    return result;
}

Coro<void>
SmpTaskRunner::runConcurrent(TaskKind kind, const DatasetSpec &data)
{
    Tick start = simulator.now();
    // The queues live in this coroutine frame until every worker has
    // drained them.
    Queues queues;
    auto procs = launch(kind, data, &queues);
    co_await sim::joinAll(std::move(procs));
    result.elapsedTicks = simulator.now() - start;
    // The FC loop is shared across in-flight queries; bytes stay on
    // the machine-wide counter rather than being mis-attributed here.
}

} // namespace howsim::tasks
