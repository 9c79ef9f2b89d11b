#include "tasks/task_runner.hh"

#include <algorithm>
#include <vector>

#include "obs/obs.hh"
#include "os/async_io.hh"
#include "sim/logging.hh"
#include "workload/dcube_plan.hh"
#include "workload/estimate.hh"
#include "workload/sort_plan.hh"
#include "workload/task_kind.hh"
#include "workload/task_plans.hh"

namespace howsim::tasks
{

using sim::Coro;
using sim::Tick;
using workload::DatasetSpec;
using workload::TaskKind;

namespace
{

constexpr std::uint64_t kBlock = 256 * 1024;

constexpr Block kDoneMarker{.bytes = 64, .done = true};

} // namespace

TaskRunner::TaskRunner(sim::Simulator &s,
                       diskos::ActiveDiskArray &machine,
                       workload::CostModel costs)
    : TaskRunner(s, makeFabric(machine), costs)
{
}

TaskRunner::TaskRunner(sim::Simulator &s, arch::ClusterMachine &machine,
                       workload::CostModel costs)
    : TaskRunner(s, makeFabric(machine), costs)
{
}

TaskRunner::TaskRunner(sim::Simulator &s, std::unique_ptr<Fabric> f,
                       workload::CostModel costs)
    : simulator(s), fabric(std::move(f)), cm(costs)
{
    // Coordination key streams, allocated in fixed order: stream
    // identity is part of the deterministic event order (DESIGN.md
    // §14).
    doneKeys.reserve(static_cast<std::size_t>(size()));
    for (int d = 0; d < size(); ++d)
        doneKeys.push_back(s.allocKeyStream());
    goKeys = s.allocKeyStream();
}

Coro<void>
TaskRunner::computeIn(int d, const char *bucket, Tick ref_ticks)
{
    Tick scaled = fabric->cpu(d).scaled(ref_ticks);
    shards[static_cast<std::size_t>(d)].buckets.add(
        bucket, sim::toSeconds(scaled));
    // Per-chunk compute spans are high-volume, so they are
    // fine-detail only.
    obs::Session *sess = obs::session();
    if (sess && sess->fine()) {
        Tick t0 = simulator.now();
        co_await fabric->compute(d, ref_ticks);
        sess->trace().complete(sess->trace().track(fabric->cpuTrack(d)),
                               bucket, fabric->computeCategory(), t0,
                               simulator.now() - t0);
    } else {
        co_await fabric->compute(d, ref_ticks);
    }
}

Coro<void>
TaskRunner::ioProducer(int d, std::uint64_t base, std::uint64_t bytes,
                       sim::Channel<std::uint64_t> *ch)
{
    std::uint64_t off = 0;
    while (off < bytes) {
        std::uint64_t sz = std::min<std::uint64_t>(kBlock, bytes - off);
        co_await fabric->read(d, base + off, sz);
        co_await ch->send(sz);
        off += sz;
    }
    ch->close();
}

Coro<void>
TaskRunner::streamLocal(int d, std::uint64_t base, std::uint64_t bytes,
                        BlockFn consume)
{
    sim::Channel<std::uint64_t> ch(4);
    auto producer = simulator.spawn(ioProducer(d, base, bytes, &ch),
                                    "io-producer");
    for (;;) {
        auto blk = co_await ch.recv();
        if (!blk)
            break;
        co_await consume(*blk);
    }
    co_await producer->join();
}

Coro<void>
TaskRunner::emitToFrontend(int d, std::uint64_t bytes,
                           std::uint64_t *pending, bool flush)
{
    shards[static_cast<std::size_t>(d)].outputBytes += bytes;
    *pending += bytes;
    while (*pending >= kBlock) {
        co_await fabric->sendToFrontend(d, Block{.bytes = kBlock});
        *pending -= kBlock;
    }
    if (flush && *pending > 0) {
        co_await fabric->sendToFrontend(d, Block{.bytes = *pending});
        *pending = 0;
    }
}

Coro<void>
TaskRunner::frontendConsumer(Tick per_byte_merge_ref)
{
    int dones = 0;
    while (dones < size()) {
        auto blk = co_await fabric->recvAtFrontend();
        if (!blk)
            break;
        if (blk->done) {
            ++dones;
            continue;
        }
        if (per_byte_merge_ref > 0) {
            co_await fabric->frontendCpu().compute(blk->bytes
                                                   * per_byte_merge_ref);
        }
    }
}

Coro<void>
TaskRunner::partitionWorker(int d, int phase, std::uint64_t base,
                            std::uint64_t bytes,
                            std::uint32_t tuple_bytes,
                            const char *bucket, Tick per_tuple_ref,
                            double ratio)
{
    std::uint64_t acc = 0;
    int next_dst = (d + 1) % size();
    auto consume = [this, d, phase, tuple_bytes, bucket, per_tuple_ref,
                    ratio, &acc, &next_dst](std::uint64_t blk)
        -> Coro<void> {
        std::uint64_t tuples = blk / tuple_bytes;
        co_await computeIn(d, bucket, tuples * per_tuple_ref);
        acc += static_cast<std::uint64_t>(static_cast<double>(blk)
                                          * ratio);
        while (acc >= kBlock) {
            int dst = next_dst;
            next_dst = (next_dst + 1) % size();
            co_await fabric->send(d, dst, phase, Block{.bytes = kBlock});
            acc -= kBlock;
        }
    };
    co_await streamLocal(d, base, bytes, consume);
    if (acc > 0)
        co_await fabric->send(d, d, phase, Block{.bytes = acc});
    // Signal completion to every collector.
    for (int dst = 0; dst < size(); ++dst)
        co_await fabric->send(d, dst, phase, kDoneMarker);
}

Coro<void>
TaskRunner::shuffleCollector(int d, int phase,
                             std::optional<std::uint64_t> write_base,
                             Tick per_tuple_ref,
                             std::uint32_t tuple_bytes,
                             const char *cpu_bucket)
{
    int dones = 0;
    std::uint64_t write_off = 0;
    while (dones < size()) {
        auto blk = co_await fabric->recv(d, phase);
        if (!blk)
            break;
        if (blk->done) {
            ++dones;
            continue;
        }
        if (per_tuple_ref > 0) {
            std::uint64_t tuples = blk->bytes / tuple_bytes;
            co_await computeIn(d, cpu_bucket, tuples * per_tuple_ref);
        }
        if (write_base) {
            co_await fabric->write(d, *write_base + write_off,
                                   blk->bytes);
            write_off += blk->bytes;
        }
    }
}

TaskRunner::ScanCosts
TaskRunner::scanCosts(TaskKind kind, const DatasetSpec &data) const
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    ScanCosts c;
    switch (kind) {
      case TaskKind::Select:
        c.perTuple = cm.selectPredicate
                     + static_cast<Tick>(data.selectivity
                                         * static_cast<double>(
                                             cm.selectEmit));
        c.emitRatio = data.selectivity;
        break;
      case TaskKind::Aggregate:
        c.perTuple = cm.aggregateUpdate;
        c.emitRatio = 0.0;
        break;
      case TaskKind::GroupBy: {
        c.perTuple = cm.groupbyHash;
        // A memory-resident hash table absorbs duplicate keys
        // locally (skewed retail keys); emission approximates twice
        // the device's share of the final groups.
        std::uint64_t results = data.distinctGroups * data.tupleBytes;
        // ~1.5x duplication across devices' partial tables.
        std::uint64_t emitted = std::min<std::uint64_t>(
            3 * results / (2 * static_cast<std::uint64_t>(n)),
            local_bytes);
        c.emitRatio = static_cast<double>(emitted)
                      / static_cast<double>(local_bytes);
        break;
      }
      default:
        panic("scanCosts: unsupported task");
    }
    return c;
}

Coro<void>
TaskRunner::scanWorker(int d, const DatasetSpec &data, TaskKind kind)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    const std::uint64_t tuple = data.tupleBytes;
    const ScanCosts costs = scanCosts(kind, data);
    const Tick per_tuple = costs.perTuple;
    const double emit_ratio = costs.emitRatio;

    std::uint64_t pending = 0;

    // Fail-stop needs no task-level branch: a dead device's worker
    // keeps executing this very loop, with every read, compute and
    // send hardware-redirected to the takeover peer by the machine
    // (stall until the lease, then serve on the peer), so the emitted
    // bytes are identical to the fault-free run by construction.
    auto consume = [this, d, tuple, per_tuple, emit_ratio,
                    &pending](std::uint64_t blk) -> Coro<void> {
        std::uint64_t tuples = blk / tuple;
        co_await computeIn(d, "scan.cpu", tuples * per_tuple);
        if (emit_ratio > 0.0) {
            auto out = static_cast<std::uint64_t>(
                static_cast<double>(blk) * emit_ratio);
            co_await emitToFrontend(d, out, &pending, false);
        }
    };
    co_await streamLocal(d, 0, local_bytes, consume);
    co_await emitToFrontend(d, 0, &pending, true);
    co_await fabric->sendToFrontend(d, kDoneMarker);
}

Coro<void>
TaskRunner::sortCollector(int d, const DatasetSpec &data)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    auto plan = workload::SortPlan::plan(local_bytes, memory(),
                                         data.tupleBytes);
    std::uint64_t run_acc = 0;
    std::uint64_t write_off = writeRegion();
    int dones = 0;

    // Run sorting and write-out overlap continued collection (the
    // paper's "aggressively pipelined partial results"); the flush
    // window is the second run buffer.
    os::AsyncQueue flusher(simulator, 1);
    auto flush_run = [this, d, &plan,
                      &data](std::uint64_t bytes,
                             std::uint64_t at) -> Coro<void> {
        std::uint64_t run_tuples = bytes / data.tupleBytes;
        co_await computeIn(d, "p1.sort",
                           run_tuples
                               * cm.sortRunPerTuple(plan.runTuples));
        std::uint64_t off = 0;
        while (off < bytes) {
            std::uint64_t sz = std::min<std::uint64_t>(kBlock,
                                                       bytes - off);
            co_await fabric->write(d, at + off, sz);
            off += sz;
        }
    };

    while (dones < n) {
        auto blk = co_await fabric->recv(d, 0);
        if (!blk)
            break;
        if (blk->done) {
            ++dones;
            continue;
        }
        std::uint64_t tuples = blk->bytes / data.tupleBytes;
        co_await computeIn(d, "p1.append", tuples * cm.sortAppend);
        run_acc += blk->bytes;
        if (run_acc >= plan.runBytes) {
            co_await flusher.postBounded(flush_run(run_acc, write_off));
            write_off += run_acc;
            run_acc = 0;
        }
    }
    if (run_acc > 0)
        flusher.post(flush_run(run_acc, write_off));
    co_await flusher.drain();
}

Coro<void>
TaskRunner::sortMergeWorker(int d, const DatasetSpec &data)
{
    const std::uint64_t local_bytes
        = data.inputBytes / static_cast<std::uint64_t>(size());
    auto plan = workload::SortPlan::plan(local_bytes, memory(),
                                         data.tupleBytes);
    const std::uint64_t run_base = writeRegion();
    const std::uint64_t out_base = outputRegion();
    const std::uint64_t runs = plan.runCount;
    // Merge read granularity: share the merge memory across runs.
    std::uint64_t chunk = std::max<std::uint64_t>(
        kBlock, plan.runBytes / std::max<std::uint64_t>(runs, 1));
    chunk = std::min<std::uint64_t>(chunk, 1 << 20);

    std::vector<std::uint64_t> run_off(runs, 0);
    std::vector<std::uint64_t> run_len(runs, plan.runBytes);
    // The last run holds the remainder.
    std::uint64_t covered = plan.runBytes * (runs - 1);
    run_len[runs - 1] = local_bytes > covered ? local_bytes - covered
                                              : 0;

    std::uint64_t out_acc = 0, out_off = 0, remaining = local_bytes;
    std::size_t r = 0;
    while (remaining > 0) {
        // Round-robin across runs, skipping exhausted ones.
        std::size_t probes = 0;
        while (run_off[r] >= run_len[r] && probes++ < runs)
            r = (r + 1) % runs;
        std::uint64_t sz = std::min(chunk, run_len[r] - run_off[r]);
        co_await fabric->read(d, run_base + r * plan.runBytes + run_off[r],
                              sz);
        run_off[r] += sz;
        r = (r + 1) % runs;

        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(d, "p2.merge",
                           tuples * cm.sortMergePerTuple(runs));
        out_acc += sz;
        while (out_acc >= kBlock) {
            co_await fabric->write(d, out_base + out_off, kBlock);
            out_off += kBlock;
            out_acc -= kBlock;
        }
        remaining -= sz;
    }
    if (out_acc > 0)
        co_await fabric->write(d, out_base + out_off, out_acc);
}

Coro<void>
TaskRunner::joinWorker(int d, const DatasetSpec &data)
{
    const int n = size();
    auto plan = workload::JoinPlan::plan(data, n, memory());
    const std::uint64_t local_rel = plan.relationBytes
                                    / static_cast<std::uint64_t>(n);
    const std::uint64_t local_proj = plan.projectedBytes
                                     / static_cast<std::uint64_t>(n);
    const double shrink = static_cast<double>(plan.projectedBytes)
                          / static_cast<double>(plan.relationBytes);
    const std::uint64_t part_base_r = writeRegion();
    const std::uint64_t part_base_s = part_base_r + local_proj;
    const std::uint64_t out_base = outputRegion();

    // Phase 1 & 2: project and hash-partition each relation.
    for (int rel = 0; rel < 2; ++rel) {
        std::uint64_t src_base = rel == 0 ? 0 : local_rel;
        std::uint64_t dst_base = rel == 0 ? part_base_r : part_base_s;
        auto collector = simulator.spawn(
            shuffleCollector(d, rel, dst_base, 0,
                             data.projectedTupleBytes, "p1.append"),
            "join-collector");
        co_await partitionWorker(d, rel, src_base, local_rel,
                                 data.tupleBytes, "p1.partitioner",
                                 cm.joinProject + cm.joinPartition,
                                 shrink);
        co_await collector->join();
        co_await fabric->barrier(d);
    }

    // Phase 3: per-partition build/probe and result write-back.
    const std::uint64_t parts = plan.partitionsPerDevice;
    std::uint64_t out_off = 0, out_acc = 0;
    for (std::uint64_t p = 0; p < parts; ++p) {
        std::uint64_t r_bytes = local_proj / parts;
        auto build = [this, d, &data](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.projectedTupleBytes;
            co_await computeIn(d, "p3.build", tuples * cm.joinBuild);
        };
        co_await streamLocal(d, part_base_r + p * r_bytes, r_bytes,
                             build);
        auto probe = [this, d, &data, &out_acc, &out_off, out_base](
                         std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.projectedTupleBytes;
            co_await computeIn(d, "p3.probe", tuples * cm.joinProbe);
            out_acc += blk / 2; // matched pairs
            while (out_acc >= kBlock) {
                co_await fabric->write(d, out_base + out_off, kBlock);
                out_off += kBlock;
                out_acc -= kBlock;
            }
        };
        co_await streamLocal(d, part_base_s + p * r_bytes, r_bytes,
                             probe);
    }
    if (out_acc > 0)
        co_await fabric->write(d, out_base + out_off, out_acc);
    co_await fabric->sendToFrontend(d, kDoneMarker);
}

Coro<void>
TaskRunner::dcubeWorker(int d, const DatasetSpec &data)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    const std::uint64_t local_tuples = data.tupleCount
                                       / static_cast<std::uint64_t>(n);
    auto plan = workload::DatacubePlan::plan(
        memory() * static_cast<std::uint64_t>(n));
    const auto &lattice = workload::DatacubePlan::lattice();
    std::uint64_t write_off = writeRegion();

    for (const auto &scan : plan.scans) {
        // Does this scan hold a group-by too large for memory?
        std::uint64_t overflow_bytes = 0;
        for (int g : scan) {
            if (std::find(plan.overflowing.begin(),
                          plan.overflowing.end(), g)
                != plan.overflowing.end()) {
                double entries = static_cast<double>(
                    lattice[static_cast<std::size_t>(g)].bytes
                    / workload::DatacubePlan::entryBytes);
                // Flush-with-replacement coalesces roughly half
                // of the partial updates before they are forwarded.
                overflow_bytes += static_cast<std::uint64_t>(
                    0.5
                    * workload::expectedDistinct(
                          entries, static_cast<double>(local_tuples))
                    * workload::DatacubePlan::entryBytes);
            }
        }
        double overflow_ratio = static_cast<double>(overflow_bytes)
                                / static_cast<double>(local_bytes);

        std::uint64_t pending = 0;
        auto consume = [this, d, &data, overflow_ratio,
                        &pending](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.tupleBytes;
            co_await computeIn(d, "scan.cpu",
                               tuples * cm.dcubeHashInsert);
            if (overflow_ratio > 0.0) {
                auto out = static_cast<std::uint64_t>(
                    static_cast<double>(blk) * overflow_ratio);
                co_await emitToFrontend(d, out, &pending, false);
            }
        };
        co_await streamLocal(d, 0, local_bytes, consume);
        co_await emitToFrontend(d, 0, &pending, true);

        // Pipeline children within the scan aggregate from their
        // parent's entries, then results are written locally.
        bool first = true;
        for (int g : scan) {
            const auto &gb = lattice[static_cast<std::size_t>(g)];
            std::uint64_t entries
                = gb.bytes / workload::DatacubePlan::entryBytes
                  / static_cast<std::uint64_t>(n);
            if (!first) {
                co_await computeIn(d, "scan.cpu",
                                   entries * cm.dcubeHashInsert);
            }
            first = false;
            std::uint64_t share = gb.bytes
                                  / static_cast<std::uint64_t>(n);
            std::uint64_t off = 0;
            while (off < share) {
                std::uint64_t sz = std::min<std::uint64_t>(
                    kBlock, share - off);
                co_await fabric->write(d, write_off + off, sz);
                off += sz;
            }
            write_off += share;
        }
        co_await fabric->barrier(d);
    }

    // Client-facing summary aggregates to the front-end (~200 MB).
    std::uint64_t pending = 0;
    co_await emitToFrontend(
        d, (200ull << 20) / static_cast<std::uint64_t>(n), &pending,
        true);
    co_await fabric->sendToFrontend(d, kDoneMarker);
}

Coro<void>
TaskRunner::dmineWorker(int d, const DatasetSpec &data)
{
    const std::uint64_t local_bytes
        = data.inputBytes / static_cast<std::uint64_t>(size());
    auto plan = workload::DminePlan::plan(data);
    auto merge = [this, d](Tick ref_ticks) {
        return computeIn(d, "reduce.cpu", ref_ticks);
    };

    // Pass 1: count item frequencies.
    auto pass1 = [this, d, &data](std::uint64_t blk) -> Coro<void> {
        std::uint64_t txns = blk / data.tupleBytes;
        co_await computeIn(
            d, "scan.cpu",
            static_cast<Tick>(static_cast<double>(txns)
                              * data.avgItemsPerTxn)
                * cm.dmineItemCount);
    };
    co_await streamLocal(d, 0, local_bytes, pass1);
    co_await fabric->reduceCounters(d, plan.counterBytesPerDevice, 0,
                                    merge);

    // Wait for the frequent-item candidates from the front-end.
    co_await fabric->recvCandidates(d, plan.candidateBroadcastBytes);

    // Pass 2: subset-check transactions against the candidates.
    auto pass2 = [this, d, &data](std::uint64_t blk) -> Coro<void> {
        std::uint64_t txns = blk / data.tupleBytes;
        co_await computeIn(d, "scan.cpu", txns * cm.dmineSubsetCheck);
    };
    co_await streamLocal(d, 0, local_bytes, pass2);
    co_await fabric->reduceCounters(d, plan.counterBytesPerDevice, 1,
                                    merge);
    co_await fabric->sendToFrontend(d, kDoneMarker);
}

Coro<void>
TaskRunner::mviewWorker(int d, const DatasetSpec &data)
{
    const int n = size();
    auto plan = workload::MviewPlan::plan(data);
    const std::uint64_t local_delta = plan.deltaBytes
                                      / static_cast<std::uint64_t>(n);
    const std::uint64_t local_base = plan.baseScanBytes
                                     / static_cast<std::uint64_t>(n);
    const std::uint64_t local_semi = plan.semiJoinBytes
                                     / static_cast<std::uint64_t>(n);
    const std::uint64_t local_derived = plan.derivedBytes
                                        / static_cast<std::uint64_t>(n);

    // Phase 1: read + repartition the deltas (held in memory by the
    // owning devices; no write-back).
    {
        auto collector = simulator.spawn(
            shuffleCollector(d, 0, std::nullopt, cm.mviewDeltaApply / 3,
                             data.tupleBytes, "p1.append"),
            "mview-collector");
        co_await partitionWorker(d, 0, 0, local_delta, data.tupleBytes,
                                 "p1.partitioner", cm.joinPartition,
                                 1.0);
        co_await collector->join();
        co_await fabric->barrier(d);
    }

    // Phase 2: scan the base data, shipping matching rows to the
    // view owners (semi-join traffic).
    {
        auto collector = simulator.spawn(
            shuffleCollector(d, 1, std::nullopt, 0, data.tupleBytes,
                             "p2.append"),
            "mview-collector");
        double semi_ratio = static_cast<double>(local_semi)
                            / static_cast<double>(local_base);
        co_await partitionWorker(d, 1, local_delta, local_base,
                                 data.tupleBytes, "p2.scan",
                                 cm.mviewScanFilter, semi_ratio);
        co_await collector->join();
        co_await fabric->barrier(d);
    }

    // Phase 3: rewrite the derived relations with the updates
    // applied (read the old version, write the new one; 1 MB chunks
    // amortize the seek between the two regions). Delta and
    // semi-join rows are separate relations, each floored per device
    // like every other phase.
    const std::uint64_t derived_base = writeRegion();
    const std::uint64_t new_base = derived_base + local_derived;
    std::uint64_t apply_tuples = local_delta / data.tupleBytes
                                 + local_semi / data.tupleBytes;
    const std::uint64_t chunk = 1 << 20;
    std::uint64_t off = 0;
    while (off < local_derived) {
        std::uint64_t sz = std::min<std::uint64_t>(chunk,
                                                   local_derived - off);
        co_await fabric->read(d, derived_base + off, sz);
        co_await fabric->write(d, new_base + off, sz);
        off += sz;
    }
    co_await computeIn(d, "p3.apply",
                       apply_tuples * cm.mviewDeltaApply);
    co_await fabric->sendToFrontend(d, kDoneMarker);
}

void
TaskRunner::notifySortDone(int d, int *remaining, sim::Trigger *done)
{
    simulator.postKeyed(simulator.now() + fabric->crossLatency(),
                        doneKeys[static_cast<std::size_t>(d)].next(),
                        [remaining, done] {
                            if (--*remaining == 0)
                                done->fire();
                        });
}

Coro<void>
TaskRunner::runAndNotify(Coro<void> body, int d, int *remaining,
                         sim::Trigger *done)
{
    co_await body;
    notifySortDone(d, remaining, done);
}

Coro<void>
TaskRunner::sortPhase2Worker(int d, const DatasetSpec &data)
{
    co_await sortGo[static_cast<std::size_t>(d)]->wait();
    co_await sortMergeWorker(d, data);
    notifySortDone(d, &sortP2Remaining, &sortP2Done);
}

Coro<void>
TaskRunner::sortCoordinator()
{
    // Two phases; this coordinator records their elapsed times as
    // observed from the front-end: a phase ends when the last
    // worker's keyed done-notification lands here, one crossLatency()
    // hop after the work finished. The obs phase spans bracket exactly
    // the intervals the buckets measure, so span durations equal the
    // Figure 3 numbers.
    const int n = size();
    Tick t0 = simulator.now();
    {
        obs::Span span("phases", "p1", "phase");
        co_await sortP1Done.wait();
    }
    result.buckets.add("p1.elapsed",
                       sim::toSeconds(simulator.now() - t0));
    Tick t1 = simulator.now();
    {
        obs::Span span("phases", "p2", "phase");
        for (int d = 0; d < n; ++d) {
            sim::Trigger *go
                = sortGo[static_cast<std::size_t>(d)].get();
            simulator.postKeyed(simulator.now() + fabric->crossLatency(),
                                goKeys.next(), [go] { go->fire(); });
        }
        co_await sortP2Done.wait();
    }
    result.buckets.add("p2.elapsed",
                       sim::toSeconds(simulator.now() - t1));
}

Coro<void>
TaskRunner::dmineFrontend(const DatasetSpec &data)
{
    // Collect pass-1 counters, broadcast candidates, then take in the
    // pass-2 counters and the done markers, which may interleave.
    auto plan = workload::DminePlan::plan(data);
    co_await fabric->gatherCounters();
    co_await fabric->broadcastCandidates(plan.candidateBroadcastBytes);
    co_await fabric->gatherCounters();
    for (int i = 0; i < size(); ++i) {
        auto blk = co_await fabric->recvAtFrontend();
        if (!blk)
            break;
    }
}

std::vector<sim::ProcessRef>
TaskRunner::launch(TaskKind kind, const DatasetSpec &data)
{
    result = TaskResult{};
    shards.assign(static_cast<std::size_t>(size()), TaskResult{});
    const int n = size();
    std::vector<sim::ProcessRef> procs;

    Tick fe_merge_per_byte = 0;
    if (kind == TaskKind::GroupBy) {
        // Final aggregation of incoming partials on the front-end.
        fe_merge_per_byte = cm.groupbyHash / (2 * data.tupleBytes);
    }

    switch (kind) {
      case TaskKind::Select:
      case TaskKind::Aggregate:
      case TaskKind::GroupBy:
        for (int d = 0; d < n; ++d) {
            procs.push_back(simulator.spawn(scanWorker(d, data, kind),
                                            "scan-worker"));
        }
        procs.push_back(simulator.spawn(
            frontendConsumer(fe_merge_per_byte), "fe"));
        break;
      case TaskKind::Sort: {
        const std::uint64_t local_bytes
            = data.inputBytes / static_cast<std::uint64_t>(n);
        sortP1Remaining = 2 * n;
        sortP2Remaining = n;
        sortP1Done.reset();
        sortP2Done.reset();
        sortGo.clear();
        for (int d = 0; d < n; ++d)
            sortGo.push_back(std::make_unique<sim::Trigger>());
        for (int d = 0; d < n; ++d) {
            procs.push_back(simulator.spawn(
                runAndNotify(partitionWorker(d, 0, 0, local_bytes,
                                             data.tupleBytes,
                                             "p1.partitioner",
                                             cm.sortPartition, 1.0),
                             d, &sortP1Remaining, &sortP1Done),
                "sort-part"));
            procs.push_back(simulator.spawn(
                runAndNotify(sortCollector(d, data), d,
                             &sortP1Remaining, &sortP1Done),
                "sort-collect"));
            procs.push_back(simulator.spawn(sortPhase2Worker(d, data),
                                            "sort-merge"));
        }
        procs.push_back(
            simulator.spawn(sortCoordinator(), "sort-coordinator"));
        break;
      }
      case TaskKind::Join:
        for (int d = 0; d < n; ++d) {
            procs.push_back(
                simulator.spawn(joinWorker(d, data), "join-worker"));
        }
        procs.push_back(simulator.spawn(frontendConsumer(0), "fe"));
        break;
      case TaskKind::Datacube:
        for (int d = 0; d < n; ++d) {
            procs.push_back(
                simulator.spawn(dcubeWorker(d, data), "dcube-worker"));
        }
        procs.push_back(simulator.spawn(frontendConsumer(0), "fe"));
        break;
      case TaskKind::Dmine:
        for (int d = 0; d < n; ++d) {
            procs.push_back(
                simulator.spawn(dmineWorker(d, data), "dmine-worker"));
        }
        procs.push_back(
            simulator.spawn(dmineFrontend(data), "dmine-fe"));
        break;
      case TaskKind::Mview:
        for (int d = 0; d < n; ++d) {
            procs.push_back(
                simulator.spawn(mviewWorker(d, data), "mview-worker"));
        }
        procs.push_back(simulator.spawn(frontendConsumer(0), "fe"));
        break;
    }
    return procs;
}

void
TaskRunner::foldShards()
{
    // Device order is fixed, so the floating-point bucket sums are
    // summed in one order every run.
    for (const TaskResult &shard : shards) {
        result.buckets.merge(shard.buckets);
        result.outputBytes += shard.outputBytes;
    }
}

TaskResult
TaskRunner::run(TaskKind kind, const DatasetSpec &data)
{
    Tick start = simulator.now();
    obs::Span taskSpan("task", workload::taskName(kind), "task");
    launch(kind, data);
    simulator.run();
    foldShards();
    result.elapsedTicks = simulator.now() - start;
    result.interconnectBytes = fabric->interconnectBytes();
    return result;
}

Coro<void>
TaskRunner::runConcurrent(TaskKind kind, const DatasetSpec &data)
{
    Tick start = simulator.now();
    auto procs = launch(kind, data);
    co_await sim::joinAll(std::move(procs));
    foldShards();
    result.elapsedTicks = simulator.now() - start;
    // The interconnect is shared across in-flight queries; bytes stay
    // on the machine-wide counter rather than being mis-attributed
    // here.
}

} // namespace howsim::tasks
