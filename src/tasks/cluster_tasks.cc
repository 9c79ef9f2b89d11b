#include "tasks/cluster_tasks.hh"

#include <algorithm>
#include <vector>

#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sim/awaitables.hh"
#include "sim/logging.hh"
#include "os/async_io.hh"
#include "workload/task_kind.hh"
#include "workload/dcube_plan.hh"
#include "workload/estimate.hh"
#include "workload/sort_plan.hh"
#include "workload/task_plans.hh"

namespace howsim::tasks
{

using net::Message;
using sim::Coro;
using sim::Tick;
using workload::DatasetSpec;
using workload::TaskKind;

namespace
{

/** Message tags. */
enum Tag : int
{
    kData = 0,
    kDone = 1,
    kCandidates = 2,
    kToFrontend = 3,
    kDataPhase2 = 4,
    kReducePass1 = 5,
    kReducePass2 = 6,
};

constexpr std::uint64_t kBlock = 256 * 1024;

std::uint64_t
writeRegion(const arch::ClusterMachine &m)
{
    return m.driveCapacity() * 2 / 5;
}

std::uint64_t
outputRegion(const arch::ClusterMachine &m)
{
    return m.driveCapacity() * 3 / 4;
}

} // namespace

ClusterTaskRunner::ClusterTaskRunner(sim::Simulator &s,
                                     arch::ClusterMachine &machine_,
                                     workload::CostModel costs)
    : simulator(s), machine(machine_), cm(costs)
{
    // Coordination key streams, in fixed order (stream identity is
    // part of the deterministic event order, DESIGN.md §14).
    doneKeys.reserve(static_cast<std::size_t>(machine.size()));
    for (int n = 0; n < machine.size(); ++n)
        doneKeys.push_back(s.allocKeyStream());
    goKeys = s.allocKeyStream();
}

Coro<void>
ClusterTaskRunner::computeIn(int node, const char *bucket,
                             Tick ref_ticks)
{
    Tick scaled = machine.cpu(node).scaled(ref_ticks);
    shards[static_cast<std::size_t>(node)].buckets.add(
        bucket, sim::toSeconds(scaled));
    // Per-chunk host compute spans are high-volume: fine-detail only.
    obs::Session *sess = obs::session();
    if (sess && sess->fine()) {
        Tick t0 = simulator.now();
        co_await machine.cpu(node).compute(ref_ticks);
        sess->trace().complete(
            sess->trace().track("h" + std::to_string(node) + ".cpu"),
            bucket, "compute", t0, simulator.now() - t0);
    } else {
        co_await machine.cpu(node).compute(ref_ticks);
    }
}

Coro<void>
ClusterTaskRunner::ioProducer(int node, std::uint64_t base,
                              std::uint64_t bytes,
                              sim::Channel<std::uint64_t> *ch)
{
    std::uint64_t off = 0;
    while (off < bytes) {
        std::uint64_t sz = std::min<std::uint64_t>(kBlock, bytes - off);
        co_await machine.read(node, base + off, sz);
        co_await ch->send(sz);
        off += sz;
    }
    ch->close();
}

Coro<void>
ClusterTaskRunner::streamLocal(int node, std::uint64_t base,
                               std::uint64_t bytes, BlockFn consume)
{
    sim::Channel<std::uint64_t> ch(4);
    auto producer = simulator.spawn(ioProducer(node, base, bytes, &ch),
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
ClusterTaskRunner::emitToFrontend(int node, std::uint64_t bytes,
                                  std::uint64_t *pending, bool flush)
{
    shards[static_cast<std::size_t>(node)].outputBytes += bytes;
    *pending += bytes;
    while (*pending >= kBlock) {
        co_await msgSend(
            node, machine.frontendId(),
            Message{.tag = kToFrontend, .bytes = kBlock});
        *pending -= kBlock;
    }
    if (flush && *pending > 0) {
        co_await msgSend(
            node, machine.frontendId(),
            Message{.tag = kToFrontend, .bytes = *pending});
        *pending = 0;
    }
}

Coro<void>
ClusterTaskRunner::sendDone(int node, int dst, int tag)
{
    Message m;
    m.tag = tag;
    m.bytes = 64;
    m.payload = true; // completion marker
    co_await msgSend(node, dst, std::move(m));
}

Coro<void>
ClusterTaskRunner::broadcastDone(int node, int tag)
{
    for (int dst = 0; dst < size(); ++dst)
        co_await sendDone(node, dst, tag);
}

Coro<void>
ClusterTaskRunner::frontendConsumer(Tick per_byte_merge_ref)
{
    int fe = machine.frontendId();
    int dones = 0;
    while (dones < size()) {
        Message m = co_await msgRecv(fe, kToFrontend);
        if (m.bytes == 64 && m.payload.has_value()) {
            ++dones;
            continue;
        }
        if (per_byte_merge_ref > 0) {
            co_await machine.frontendCpu().compute(m.bytes
                                                   * per_byte_merge_ref);
        }
    }
}

namespace
{

/** Marks a front-end message as a completion marker. */
Message
feDoneMessage()
{
    Message m;
    m.tag = kToFrontend;
    m.bytes = 64;
    m.payload = true;
    return m;
}

} // namespace

ClusterTaskRunner::ScanCosts
ClusterTaskRunner::scanCosts(TaskKind kind,
                             const DatasetSpec &data) const
{
    const int n = machine.size();
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
        break;
      case TaskKind::GroupBy: {
        c.perTuple = cm.groupbyHash;
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
ClusterTaskRunner::scanWorker(int node, const DatasetSpec &data,
                              TaskKind kind)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    const std::uint64_t tuple = data.tupleBytes;
    const ScanCosts costs = scanCosts(kind, data);
    const Tick per_tuple = costs.perTuple;
    const double emit_ratio = costs.emitRatio;

    std::uint64_t pending = 0;

    // Fail-stop needs no task-level branch: a dead node's share
    // keeps executing this very loop, with every read/cpu/send
    // hardware-redirected to the takeover peer by the machine
    // (ClusterMachine::route), so the emitted bytes are identical to
    // the fault-free run by construction.
    auto consume = [this, node, tuple, per_tuple, emit_ratio,
                    &pending](std::uint64_t blk) -> Coro<void> {
        std::uint64_t tuples = blk / tuple;
        co_await computeIn(node, "scan.cpu", tuples * per_tuple);
        if (emit_ratio > 0.0) {
            auto out = static_cast<std::uint64_t>(
                static_cast<double>(blk) * emit_ratio);
            co_await emitToFrontend(node, out, &pending, false);
        }
    };
    co_await streamLocal(node, 0, local_bytes, consume);
    co_await emitToFrontend(node, 0, &pending, true);
    co_await msgSend(node, machine.frontendId(),
                     feDoneMessage());
}

Coro<void>
ClusterTaskRunner::shuffleBlock(int node, int *next_dst, int tag)
{
    int dst = *next_dst;
    *next_dst = (*next_dst + 1) % size();
    co_await msgSend(node, dst,
                     Message{.tag = tag, .bytes = kBlock});
}

Coro<void>
ClusterTaskRunner::sortPartitionWorker(int node, const DatasetSpec &data)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    std::uint64_t acc = 0;
    int next_dst = (node + 1) % n;
    auto consume = [this, node, &acc,
                    &next_dst, &data](std::uint64_t blk) -> Coro<void> {
        std::uint64_t tuples = blk / data.tupleBytes;
        co_await computeIn(node, "p1.partitioner",
                           tuples * cm.sortPartition);
        acc += blk;
        while (acc >= kBlock) {
            co_await shuffleBlock(node, &next_dst, kData);
            acc -= kBlock;
        }
    };
    co_await streamLocal(node, 0, local_bytes, consume);
    if (acc > 0) {
        co_await msgSend(node, node,
                         Message{.tag = kData, .bytes = acc});
    }
    co_await broadcastDone(node, kData);
}

Coro<void>
ClusterTaskRunner::sortCollector(int node, const DatasetSpec &data)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    auto plan = workload::SortPlan::plan(
        local_bytes, usableMemory(),
        data.tupleBytes);
    std::uint64_t run_acc = 0;
    std::uint64_t write_off = writeRegion(machine);
    int dones = 0;

    // Overlap run sorting/writing with continued collection.
    os::AsyncQueue flusher(simulator, 1);
    auto flush_run = [this, node, &plan,
                      &data](std::uint64_t bytes,
                             std::uint64_t at) -> Coro<void> {
        std::uint64_t run_tuples = bytes / data.tupleBytes;
        co_await computeIn(node, "p1.sort",
                           run_tuples
                               * cm.sortRunPerTuple(plan.runTuples));
        std::uint64_t off = 0;
        while (off < bytes) {
            std::uint64_t sz = std::min<std::uint64_t>(kBlock,
                                                       bytes - off);
            co_await machine.write(node, at + off, sz);
            off += sz;
        }
    };

    while (dones < n) {
        Message m = co_await msgRecv(node, kData);
        if (m.payload.has_value()) {
            ++dones;
            continue;
        }
        std::uint64_t tuples = m.bytes / data.tupleBytes;
        co_await computeIn(node, "p1.append", tuples * cm.sortAppend);
        run_acc += m.bytes;
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
ClusterTaskRunner::sortMergeWorker(int node, const DatasetSpec &data)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    auto plan = workload::SortPlan::plan(
        local_bytes, usableMemory(),
        data.tupleBytes);
    const std::uint64_t run_base = writeRegion(machine);
    const std::uint64_t out_base = outputRegion(machine);
    const std::uint64_t runs = plan.runCount;
    std::uint64_t chunk = std::max<std::uint64_t>(
        kBlock, plan.runBytes / std::max<std::uint64_t>(runs, 1));
    chunk = std::min<std::uint64_t>(chunk, 1 << 20);

    std::vector<std::uint64_t> run_off(runs, 0);
    std::vector<std::uint64_t> run_len(runs, plan.runBytes);
    std::uint64_t covered = plan.runBytes * (runs - 1);
    run_len[runs - 1] = local_bytes > covered ? local_bytes - covered
                                              : 0;

    std::uint64_t out_acc = 0, out_off = 0, remaining = local_bytes;
    std::size_t r = 0;
    while (remaining > 0) {
        std::size_t probes = 0;
        while (run_off[r] >= run_len[r] && probes++ < runs)
            r = (r + 1) % runs;
        std::uint64_t sz = std::min(chunk, run_len[r] - run_off[r]);
        co_await machine.read(node,
                              run_base + r * plan.runBytes + run_off[r],
                              sz);
        run_off[r] += sz;
        r = (r + 1) % runs;

        std::uint64_t tuples = sz / data.tupleBytes;
        co_await computeIn(node, "p2.merge",
                           tuples * cm.sortMergePerTuple(runs));
        out_acc += sz;
        while (out_acc >= kBlock) {
            co_await machine.write(node, out_base + out_off, kBlock);
            out_off += kBlock;
            out_acc -= kBlock;
        }
        remaining -= sz;
    }
    if (out_acc > 0)
        co_await machine.write(node, out_base + out_off, out_acc);
    (void)n;
}

Coro<void>
ClusterTaskRunner::shuffleCollector(int node, int tag,
                                    std::uint64_t write_base,
                                    Tick per_tuple_ref,
                                    std::uint32_t tuple_bytes,
                                    const char *cpu_bucket)
{
    const int n = size();
    int dones = 0;
    std::uint64_t write_off = 0;
    while (dones < n) {
        Message m = co_await msgRecv(node, tag);
        if (m.payload.has_value()) {
            ++dones;
            continue;
        }
        if (per_tuple_ref > 0) {
            std::uint64_t tuples = m.bytes / tuple_bytes;
            co_await computeIn(node, cpu_bucket,
                               tuples * per_tuple_ref);
        }
        if (write_base != ~0ull) {
            co_await machine.write(node, write_base + write_off,
                                   m.bytes);
            write_off += m.bytes;
        }
    }
}

Coro<void>
ClusterTaskRunner::joinWorker(int node, const DatasetSpec &data)
{
    const int n = size();
    auto plan = workload::JoinPlan::plan(
        data, n, usableMemory());
    const std::uint64_t local_rel = plan.relationBytes
                                    / static_cast<std::uint64_t>(n);
    const std::uint64_t local_proj = plan.projectedBytes
                                     / static_cast<std::uint64_t>(n);
    const double shrink = static_cast<double>(plan.projectedBytes)
                          / static_cast<double>(plan.relationBytes);
    const std::uint64_t part_base_r = writeRegion(machine);
    const std::uint64_t part_base_s = part_base_r + local_proj;
    const std::uint64_t out_base = outputRegion(machine);

    for (int rel = 0; rel < 2; ++rel) {
        std::uint64_t src_base = rel == 0 ? 0 : local_rel;
        std::uint64_t dst_base = rel == 0 ? part_base_r : part_base_s;
        int tag = rel == 0 ? kData : kDataPhase2;
        auto collector = simulator.spawn(
            shuffleCollector(node, tag, dst_base, 0,
                             data.projectedTupleBytes, "p1.append"),
            "join-collector");

        std::uint64_t acc = 0;
        int next_dst = (node + 1) % n;
        auto consume = [this, node, shrink, &acc, &next_dst, tag,
                        &data](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.tupleBytes;
            co_await computeIn(node, "p1.partitioner",
                               tuples
                                   * (cm.joinProject
                                      + cm.joinPartition));
            acc += static_cast<std::uint64_t>(
                static_cast<double>(blk) * shrink);
            while (acc >= kBlock) {
                co_await shuffleBlock(node, &next_dst, tag);
                acc -= kBlock;
            }
        };
        co_await streamLocal(node, src_base, local_rel, consume);
        if (acc > 0) {
            co_await msgSend(
                node, node, Message{.tag = tag, .bytes = acc});
        }
        co_await broadcastDone(node, tag);
        co_await collector->join();
        co_await barrier(node);
    }

    const std::uint64_t parts = plan.partitionsPerDevice;
    std::uint64_t out_off = 0, out_acc = 0;
    for (std::uint64_t p = 0; p < parts; ++p) {
        std::uint64_t r_bytes = local_proj / parts;
        auto build = [this, node,
                      &data](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.projectedTupleBytes;
            co_await computeIn(node, "p3.build", tuples * cm.joinBuild);
        };
        co_await streamLocal(node, part_base_r + p * r_bytes, r_bytes,
                             build);
        auto probe = [this, node, &data, &out_acc, &out_off, out_base](
                         std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.projectedTupleBytes;
            co_await computeIn(node, "p3.probe", tuples * cm.joinProbe);
            out_acc += blk / 2;
            while (out_acc >= kBlock) {
                co_await machine.write(node, out_base + out_off,
                                       kBlock);
                out_off += kBlock;
                out_acc -= kBlock;
            }
        };
        co_await streamLocal(node, part_base_s + p * r_bytes, r_bytes,
                             probe);
    }
    if (out_acc > 0)
        co_await machine.write(node, out_base + out_off, out_acc);
    co_await msgSend(node, machine.frontendId(),
                     feDoneMessage());
}

Coro<void>
ClusterTaskRunner::dcubeWorker(int node, const DatasetSpec &data)
{
    const int n = size();
    const std::uint64_t local_bytes = data.inputBytes
                                      / static_cast<std::uint64_t>(n);
    const std::uint64_t local_tuples = data.tupleCount
                                       / static_cast<std::uint64_t>(n);
    auto plan = workload::DatacubePlan::plan(
        usableMemory()
        * static_cast<std::uint64_t>(n));
    const auto &lattice = workload::DatacubePlan::lattice();
    std::uint64_t write_off = writeRegion(machine);

    for (const auto &scan : plan.scans) {
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
        auto consume = [this, node, &data, overflow_ratio,
                        &pending](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.tupleBytes;
            co_await computeIn(node, "scan.cpu",
                               tuples * cm.dcubeHashInsert);
            if (overflow_ratio > 0.0) {
                auto out = static_cast<std::uint64_t>(
                    static_cast<double>(blk) * overflow_ratio);
                co_await emitToFrontend(node, out, &pending, false);
            }
        };
        co_await streamLocal(node, 0, local_bytes, consume);
        co_await emitToFrontend(node, 0, &pending, true);

        bool first = true;
        for (int g : scan) {
            const auto &gb = lattice[static_cast<std::size_t>(g)];
            std::uint64_t entries
                = gb.bytes / workload::DatacubePlan::entryBytes
                  / static_cast<std::uint64_t>(n);
            if (!first) {
                co_await computeIn(node, "scan.cpu",
                                   entries * cm.dcubeHashInsert);
            }
            first = false;
            std::uint64_t share = gb.bytes
                                  / static_cast<std::uint64_t>(n);
            std::uint64_t off = 0;
            while (off < share) {
                std::uint64_t sz = std::min<std::uint64_t>(
                    kBlock, share - off);
                co_await machine.write(node, write_off + off, sz);
                off += sz;
            }
            write_off += share;
        }
        co_await barrier(node);
    }

    std::uint64_t pending = 0;
    co_await emitToFrontend(
        node, (200ull << 20) / static_cast<std::uint64_t>(n), &pending,
        true);
    co_await msgSend(node, machine.frontendId(),
                     feDoneMessage());
}

Coro<void>
ClusterTaskRunner::reduceToFrontend(int node, std::uint64_t bytes,
                                    int tag)
{
    // Binomial-tree reduction over the scalable fabric (the MPI-like
    // library's global reduction); only node 0 touches the
    // front-end's 100 Mb/s link.
    const int n = size();
    for (int stride = 1; stride < n; stride *= 2) {
        if (node & stride) {
            co_await msgSend(
                node, node - stride, Message{.tag = tag, .bytes = bytes});
            co_return;
        }
        if (node + stride < n) {
            co_await msgRecv(node, tag);
            // Merge the peer's counters into ours.
            co_await computeIn(node, "reduce.cpu", bytes * 3 / 1000);
        }
    }
    co_await msgSend(node, machine.frontendId(),
                     Message{.tag = kToFrontend,
                             .bytes = bytes});
}

Coro<void>
ClusterTaskRunner::broadcastFromFrontend(int node, std::uint64_t bytes)
{
    // Binomial broadcast rooted at node 0 (which hears from the
    // front-end directly).
    const int n = size();
    co_await msgRecv(node, kCandidates);
    for (int stride = 1; stride < n; stride *= 2) {
        if (node < stride && node + stride < n) {
            co_await msgSend(
                node, node + stride,
                Message{.tag = kCandidates, .bytes = bytes});
        }
    }
}

Coro<void>
ClusterTaskRunner::dmineWorker(int node, const DatasetSpec &data)
{
    const std::uint64_t local_bytes
        = data.inputBytes / static_cast<std::uint64_t>(size());
    auto plan = workload::DminePlan::plan(data);

    auto pass1 = [this, node, &data](std::uint64_t blk) -> Coro<void> {
        std::uint64_t txns = blk / data.tupleBytes;
        co_await computeIn(
            node, "scan.cpu",
            static_cast<Tick>(static_cast<double>(txns)
                              * data.avgItemsPerTxn)
                * cm.dmineItemCount);
    };
    co_await streamLocal(node, 0, local_bytes, pass1);
    co_await reduceToFrontend(node, plan.counterBytesPerDevice,
                              kReducePass1);
    co_await broadcastFromFrontend(node,
                                   plan.candidateBroadcastBytes);

    auto pass2 = [this, node, &data](std::uint64_t blk) -> Coro<void> {
        std::uint64_t txns = blk / data.tupleBytes;
        co_await computeIn(node, "scan.cpu",
                           txns * cm.dmineSubsetCheck);
    };
    co_await streamLocal(node, 0, local_bytes, pass2);
    co_await reduceToFrontend(node, plan.counterBytesPerDevice,
                              kReducePass2);
    co_await msgSend(node, machine.frontendId(),
                     feDoneMessage());
}

Coro<void>
ClusterTaskRunner::mviewWorker(int node, const DatasetSpec &data)
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

    // Phase 1: repartition the deltas.
    {
        auto collector = simulator.spawn(
            shuffleCollector(node, kData, ~0ull,
                             cm.mviewDeltaApply / 3, data.tupleBytes,
                             "p1.append"),
            "mview-collector");
        std::uint64_t acc = 0;
        int next_dst = (node + 1) % n;
        auto consume = [this, node, &acc, &next_dst,
                        &data](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.tupleBytes;
            co_await computeIn(node, "p1.partitioner",
                               tuples * cm.joinPartition);
            acc += blk;
            while (acc >= kBlock) {
                co_await shuffleBlock(node, &next_dst, kData);
                acc -= kBlock;
            }
        };
        co_await streamLocal(node, 0, local_delta, consume);
        if (acc > 0) {
            co_await msgSend(
                node, node, Message{.tag = kData, .bytes = acc});
        }
        co_await broadcastDone(node, kData);
        co_await collector->join();
        co_await barrier(node);
    }

    // Phase 2: scan base data; ship matching rows to view owners.
    {
        auto collector = simulator.spawn(
            shuffleCollector(node, kDataPhase2, ~0ull, 0,
                             data.tupleBytes, "p2.append"),
            "mview-collector");
        double semi_ratio = static_cast<double>(local_semi)
                            / static_cast<double>(local_base);
        std::uint64_t acc = 0;
        int next_dst = (node + 1) % n;
        auto consume = [this, node, semi_ratio, &acc, &next_dst,
                        &data](std::uint64_t blk) -> Coro<void> {
            std::uint64_t tuples = blk / data.tupleBytes;
            co_await computeIn(node, "p2.scan",
                               tuples * cm.mviewScanFilter);
            acc += static_cast<std::uint64_t>(
                static_cast<double>(blk) * semi_ratio);
            while (acc >= kBlock) {
                co_await shuffleBlock(node, &next_dst, kDataPhase2);
                acc -= kBlock;
            }
        };
        co_await streamLocal(node, local_delta, local_base, consume);
        if (acc > 0) {
            co_await msgSend(
                node, node, Message{.tag = kDataPhase2, .bytes = acc});
        }
        co_await broadcastDone(node, kDataPhase2);
        co_await collector->join();
        co_await barrier(node);
    }

    // Phase 3: rewrite the derived relations.
    const std::uint64_t derived_base = writeRegion(machine);
    const std::uint64_t new_base = derived_base + local_derived;
    std::uint64_t apply_tuples = (local_delta + local_semi)
                                 / data.tupleBytes;
    const std::uint64_t chunk = 1 << 20;
    std::uint64_t off = 0;
    while (off < local_derived) {
        std::uint64_t sz = std::min<std::uint64_t>(chunk,
                                                   local_derived - off);
        co_await machine.read(node, derived_base + off, sz);
        co_await machine.write(node, new_base + off, sz);
        off += sz;
    }
    co_await computeIn(node, "p3.apply",
                       apply_tuples * cm.mviewDeltaApply);
    co_await msgSend(node, machine.frontendId(),
                     feDoneMessage());
}

void
ClusterTaskRunner::notifySortDone(int node, int *remaining,
                                  sim::Trigger *done)
{
    simulator.postKeyed(simulator.now() + machine.crossLatency(),
                        doneKeys[static_cast<std::size_t>(node)].next(),
                        [remaining, done] {
                            if (--*remaining == 0)
                                done->fire();
                        });
}

Coro<void>
ClusterTaskRunner::runAndNotify(Coro<void> body, int node,
                                int *remaining, sim::Trigger *done)
{
    co_await body;
    notifySortDone(node, remaining, done);
}

Coro<void>
ClusterTaskRunner::sortPhase2Worker(int node, const DatasetSpec &data)
{
    co_await sortGo[static_cast<std::size_t>(node)]->wait();
    co_await sortMergeWorker(node, data);
    notifySortDone(node, &sortP2Remaining, &sortP2Done);
}

Coro<void>
ClusterTaskRunner::sortCoordinator()
{
    // The obs phase spans bracket exactly the interval the buckets
    // measure, so span durations equal the Figure 3 numbers.
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
        for (int node = 0; node < n; ++node) {
            sim::Trigger *go
                = sortGo[static_cast<std::size_t>(node)].get();
            simulator.postKeyed(simulator.now() + machine.crossLatency(),
                                goKeys.next(), [go] { go->fire(); });
        }
        co_await sortP2Done.wait();
    }
    result.buckets.add("p2.elapsed",
                       sim::toSeconds(simulator.now() - t1));
}

Coro<void>
ClusterTaskRunner::dmineFrontend(const DatasetSpec &data)
{
    const int n = size();
    auto plan = workload::DminePlan::plan(data);
    int id = machine.frontendId();
    // Reduced pass-1 counters arrive from node 0 alone.
    co_await msgRecv(id, kToFrontend);
    co_await msgSend(
        id, 0,
        Message{.tag = kCandidates,
                .bytes = plan.candidateBroadcastBytes});
    // Reduced pass-2 counters, then per-node completion.
    co_await msgRecv(id, kToFrontend);
    int seen = 0;
    while (seen < n) {
        co_await msgRecv(id, kToFrontend);
        ++seen;
    }
}

Coro<Message>
ClusterTaskRunner::msgRecv(int host, int tag)
{
    Message m = co_await machine.msg().recv(
        host, stream * net::kStreamTagStride + tag);
    m.tag -= stream * net::kStreamTagStride;
    co_return m;
}

std::vector<sim::ProcessRef>
ClusterTaskRunner::launch(TaskKind kind, const DatasetSpec &data)
{
    result = TaskResult{};
    shards.assign(static_cast<std::size_t>(size()), TaskResult{});
    doneMarkers = 0;
    const int n = size();
    std::vector<sim::ProcessRef> procs;

    Tick fe_merge_per_byte = 0;
    if (kind == TaskKind::GroupBy)
        fe_merge_per_byte = cm.groupbyHash / (2 * data.tupleBytes);

    switch (kind) {
      case TaskKind::Select:
      case TaskKind::Aggregate:
      case TaskKind::GroupBy:
        for (int i = 0; i < n; ++i) {
            procs.push_back(simulator.spawn(scanWorker(i, data, kind),
                                            "scan-worker"));
        }
        procs.push_back(simulator.spawn(
            frontendConsumer(fe_merge_per_byte), "fe"));
        break;
      case TaskKind::Sort:
        sortP1Remaining = 2 * n;
        sortP2Remaining = n;
        sortP1Done.reset();
        sortP2Done.reset();
        sortGo.clear();
        for (int i = 0; i < n; ++i)
            sortGo.push_back(std::make_unique<sim::Trigger>());
        for (int i = 0; i < n; ++i) {
            procs.push_back(simulator.spawn(
                runAndNotify(sortPartitionWorker(i, data), i,
                             &sortP1Remaining, &sortP1Done),
                "sort-part"));
            procs.push_back(simulator.spawn(
                runAndNotify(sortCollector(i, data), i,
                             &sortP1Remaining, &sortP1Done),
                "sort-collect"));
            procs.push_back(simulator.spawn(sortPhase2Worker(i, data),
                                            "sort-merge"));
        }
        procs.push_back(
            simulator.spawn(sortCoordinator(), "sort-coordinator"));
        break;
      case TaskKind::Join:
        for (int i = 0; i < n; ++i) {
            procs.push_back(
                simulator.spawn(joinWorker(i, data), "join-worker"));
        }
        procs.push_back(simulator.spawn(frontendConsumer(0), "fe"));
        break;
      case TaskKind::Datacube:
        for (int i = 0; i < n; ++i) {
            procs.push_back(
                simulator.spawn(dcubeWorker(i, data), "dcube-worker"));
        }
        procs.push_back(simulator.spawn(frontendConsumer(0), "fe"));
        break;
      case TaskKind::Dmine:
        for (int i = 0; i < n; ++i) {
            procs.push_back(
                simulator.spawn(dmineWorker(i, data), "dmine-worker"));
        }
        procs.push_back(
            simulator.spawn(dmineFrontend(data), "dmine-fe"));
        break;
      case TaskKind::Mview:
        for (int i = 0; i < n; ++i) {
            procs.push_back(
                simulator.spawn(mviewWorker(i, data), "mview-worker"));
        }
        procs.push_back(simulator.spawn(frontendConsumer(0), "fe"));
        break;
    }
    return procs;
}

void
ClusterTaskRunner::foldShards()
{
    // Node order is fixed, so the floating-point bucket sums are
    // summed in one order every run.
    for (const TaskResult &shard : shards) {
        result.buckets.merge(shard.buckets);
        result.outputBytes += shard.outputBytes;
    }
}

TaskResult
ClusterTaskRunner::run(TaskKind kind, const DatasetSpec &data)
{
    Tick start = simulator.now();
    obs::Span taskSpan("task", workload::taskName(kind), "task");
    launch(kind, data);
    simulator.run();
    foldShards();
    result.elapsedTicks = simulator.now() - start;
    result.interconnectBytes = machine.network().totalBytes();
    return result;
}

Coro<void>
ClusterTaskRunner::runConcurrent(TaskKind kind, const DatasetSpec &data)
{
    Tick start = simulator.now();
    auto procs = launch(kind, data);
    co_await sim::joinAll(std::move(procs));
    foldShards();
    result.elapsedTicks = simulator.now() - start;
    // The fabric is shared across in-flight queries; bytes stay on
    // the machine-wide counter rather than being mis-attributed here.
}

} // namespace howsim::tasks
