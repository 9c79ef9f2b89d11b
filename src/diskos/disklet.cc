#include "diskos/disklet.hh"

#include <algorithm>

#include "sim/awaitables.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace howsim::diskos
{

os::Cpu::Compute
Disklet::compute(sim::Tick ref_ticks)
{
    if (!pipeline)
        panic("disklet '%s' computing outside a pipeline",
              diskletName.c_str());
    return pipeline->machine().compute(pipeline->drive(), ref_ticks);
}

sim::Coro<void>
Disklet::emit(StreamBlock block)
{
    if (!pipeline)
        panic("disklet '%s' emitting outside a pipeline",
              diskletName.c_str());
    // Output stream of stage i is streams[i + 1] (0 is the source).
    co_await pipeline
        ->streams[static_cast<std::size_t>(stageIndex) + 1]
        ->send(std::move(block));
}

DiskletPipeline::DiskletPipeline(ActiveDiskArray &machine, int drive)
    : array(machine), driveIndex(drive)
{
    if (drive < 0 || drive >= machine.size())
        panic("DiskletPipeline on invalid drive %d", drive);
}

void
DiskletPipeline::source(std::uint64_t offset, std::uint64_t bytes,
                        std::uint32_t block_bytes)
{
    if (armed)
        panic("DiskletPipeline: wiring is fixed once run");
    srcOffset = offset;
    srcBytes = bytes;
    srcBlock = block_bytes;
}

void
DiskletPipeline::add(std::unique_ptr<Disklet> stage)
{
    if (armed)
        panic("DiskletPipeline: wiring is fixed once run");
    stage->pipeline = this;
    stage->stageIndex = static_cast<int>(stages.size());
    stages.push_back(std::move(stage));
}

void
DiskletPipeline::sinkFrontend()
{
    sink = SinkKind::Frontend;
}

void
DiskletPipeline::sinkMedia(std::uint64_t offset)
{
    sink = SinkKind::Media;
    sinkOffset = offset;
}

void
DiskletPipeline::sinkPeer(int dst)
{
    if (dst < 0 || dst >= array.size())
        panic("DiskletPipeline: bad peer %d", dst);
    sink = SinkKind::Peer;
    sinkPeerId = dst;
}

void
DiskletPipeline::sinkDiscard()
{
    sink = SinkKind::Discard;
}

sim::Coro<void>
DiskletPipeline::mediaReader()
{
    std::uint64_t off = 0;
    while (off < srcBytes) {
        std::uint64_t sz = std::min<std::uint64_t>(srcBlock,
                                                   srcBytes - off);
        co_await array.readLocal(driveIndex, srcOffset + off, sz);
        co_await streams.front()->send(StreamBlock{.bytes = sz});
        off += sz;
    }
    streams.front()->close();
}

sim::Coro<void>
DiskletPipeline::stageDriver(int stage)
{
    Disklet &disklet = *stages[static_cast<std::size_t>(stage)];
    Stream &input = *streams[static_cast<std::size_t>(stage)];
    for (;;) {
        auto block = co_await input.recv();
        if (!block)
            break;
        co_await disklet.process(std::move(*block));
    }
    co_await disklet.finish();
    streams[static_cast<std::size_t>(stage) + 1]->close();
}

sim::Coro<void>
DiskletPipeline::sinkDriver()
{
    Stream &input = *streams.back();
    std::uint64_t media_off = sinkOffset;
    for (;;) {
        auto block = co_await input.recv();
        if (!block)
            break;
        sunkBytes += block->bytes;
        ++sunkBlocks;
        switch (sink) {
          case SinkKind::Frontend:
            co_await array.sendToFrontend(driveIndex,
                                          AdBlock{.tag = block->tag,
                                                  .bytes = block->bytes,
                                                  .payload
                                                  = block->payload});
            break;
          case SinkKind::Media:
            co_await array.writeLocal(driveIndex, media_off,
                                      block->bytes);
            media_off += block->bytes;
            break;
          case SinkKind::Peer:
            co_await array.send(driveIndex, sinkPeerId,
                                AdBlock{.tag = block->tag,
                                        .bytes = block->bytes,
                                        .payload = block->payload});
            break;
          case SinkKind::Discard:
            break;
        }
    }
}

sim::Coro<void>
DiskletPipeline::run()
{
    if (armed)
        panic("DiskletPipeline: run() called twice");
    if (stages.empty())
        panic("DiskletPipeline: no stages");
    if (srcBytes == 0)
        panic("DiskletPipeline: no source configured");
    armed = true;

    // Enforce the sandbox's memory budget: scratch space plus stream
    // buffers must fit in the drive's memory.
    std::uint64_t scratch = 0;
    for (const auto &stage : stages)
        scratch += stage->scratchBytes();
    std::uint64_t buffers
        = static_cast<std::uint64_t>(array.params().commBuffers())
          * array.params().streamBlockBytes
          * (stages.size() + 1);
    if (scratch + buffers > array.params().memoryBytes) {
        panic("DiskletPipeline on drive %d: %llu B scratch + %llu B "
              "stream buffers exceed %llu B of drive memory",
              driveIndex, static_cast<unsigned long long>(scratch),
              static_cast<unsigned long long>(buffers),
              static_cast<unsigned long long>(
                  array.params().memoryBytes));
    }

    // Streams: source + one per stage boundary; capacity follows the
    // DiskOS buffer pool.
    std::size_t cap = static_cast<std::size_t>(
        std::max(array.params().commBuffers() / 2, 2));
    streams.clear();
    for (std::size_t s = 0; s < stages.size() + 1; ++s)
        streams.push_back(std::make_unique<Stream>(cap));

    auto *simulator = sim::Simulator::current();
    if (!simulator)
        panic("DiskletPipeline::run outside a simulation");
    std::vector<sim::ProcessRef> procs;
    procs.push_back(simulator->spawn(mediaReader(), "disklet-src"));
    for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
        procs.push_back(simulator->spawn(
            stageDriver(s),
            "disklet-" + stages[static_cast<std::size_t>(s)]->name()));
    }
    procs.push_back(simulator->spawn(sinkDriver(), "disklet-sink"));
    co_await sim::joinAll(procs);
}

} // namespace howsim::diskos
