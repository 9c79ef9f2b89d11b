/**
 * @file
 * The disklet programming model.
 *
 * The paper (following the ASPLOS'98 Active Disks work) constrains
 * disk-resident code to a coarse-grain dataflow style: a *disklet*
 * cannot initiate I/O, cannot allocate or free memory, is sandboxed
 * within the buffers of its input streams plus a scratch space fixed
 * at initialization, and cannot re-wire where its streams come from
 * or go to. DiskOS schedules disklets as their input buffers fill.
 *
 * This header reifies that model: subclass Disklet, implement
 * process() (and optionally finish()), and wire instances into a
 * DiskletPipeline whose source is the local media and whose sink is
 * the front-end, a peer drive, or the media. The pipeline enforces
 * the sandbox: the only facilities a disklet sees are compute() and
 * emit().
 */

#ifndef HOWSIM_DISKOS_DISKLET_HH
#define HOWSIM_DISKOS_DISKLET_HH

#include <any>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diskos/active_disk_array.hh"
#include "sim/channel.hh"
#include "sim/coro.hh"

namespace howsim::diskos
{

class DiskletPipeline;

/** A block flowing between disklets. */
struct StreamBlock
{
    std::uint64_t bytes = 0;
    int tag = 0;
    std::any payload;
};

/**
 * Base class for disk-resident stream processors. Lifecycle:
 * process() is invoked for every input block in arrival order;
 * finish() once after the input stream ends (emit any buffered
 * partial results there). Both run on the drive's embedded CPU via
 * compute().
 */
class Disklet
{
  public:
    /**
     * @param name    Diagnostic label.
     * @param scratch Scratch-space bytes requested at initialization
     *                (checked against the drive's memory when the
     *                pipeline is armed).
     */
    explicit Disklet(std::string name, std::uint64_t scratch = 0)
        : diskletName(std::move(name)), scratchRequest(scratch)
    {
    }

    virtual ~Disklet() = default;

    /** Handle one input block. */
    virtual sim::Coro<void> process(StreamBlock block) = 0;

    /** Input exhausted; flush any buffered state. */
    virtual sim::Coro<void>
    finish()
    {
        co_return;
    }

    const std::string &name() const { return diskletName; }
    std::uint64_t scratchBytes() const { return scratchRequest; }

  protected:
    /** Run @p ref_ticks of reference-CPU work on this drive. */
    os::Cpu::Compute compute(sim::Tick ref_ticks);

    /** Forward a block downstream. */
    sim::Coro<void> emit(StreamBlock block);

  private:
    friend class DiskletPipeline;

    std::string diskletName;
    std::uint64_t scratchRequest;
    DiskletPipeline *pipeline = nullptr;
    int stageIndex = -1;
};

/**
 * A linear dataflow of disklets on one drive: media source ->
 * disklet stages -> sink. Streams between stages are bounded by the
 * drive's DiskOS buffer pool, so backpressure propagates to the
 * media reader exactly as in the real programming model.
 */
class DiskletPipeline
{
  public:
    /** Where the final stage's output goes. */
    enum class SinkKind
    {
        Frontend,   //!< ship to the front-end host
        Media,      //!< write back to the local drive
        Peer,       //!< send to one peer drive
        Discard,    //!< results consumed in place (pure reduction)
    };

    DiskletPipeline(ActiveDiskArray &machine, int drive);

    DiskletPipeline(const DiskletPipeline &) = delete;
    DiskletPipeline &operator=(const DiskletPipeline &) = delete;

    /** Stream @p bytes of the local partition from @p offset. */
    void source(std::uint64_t offset, std::uint64_t bytes,
                std::uint32_t block_bytes = 256 * 1024);

    /** Append a processing stage (wiring is fixed afterwards). */
    void add(std::unique_ptr<Disklet> stage);

    /** Terminal: ship results to the front-end (default). */
    void sinkFrontend();

    /** Terminal: write results back to media at @p offset. */
    void sinkMedia(std::uint64_t offset);

    /** Terminal: stream results to peer drive @p dst. */
    void sinkPeer(int dst);

    /** Terminal: results stay on the drive (e.g. pure aggregation,
     *  where finish() emits only a summary). */
    void sinkDiscard();

    /**
     * Arm and run the pipeline to completion: spawns the media
     * reader and one driver per stage, then waits for the sink to
     * drain. Panics if the combined scratch requests exceed the
     * drive's memory.
     */
    sim::Coro<void> run();

    /** Bytes that reached the sink. */
    std::uint64_t sinkBytes() const { return sunkBytes; }

    /** Blocks that reached the sink. */
    std::uint64_t sinkBlocks() const { return sunkBlocks; }

    int drive() const { return driveIndex; }
    ActiveDiskArray &machine() { return array; }

  private:
    friend class Disklet;

    using Stream = sim::Channel<StreamBlock>;

    sim::Coro<void> mediaReader();
    sim::Coro<void> stageDriver(int stage);
    sim::Coro<void> sinkDriver();

    ActiveDiskArray &array;
    int driveIndex;

    std::uint64_t srcOffset = 0;
    std::uint64_t srcBytes = 0;
    std::uint32_t srcBlock = 256 * 1024;

    SinkKind sink = SinkKind::Frontend;
    std::uint64_t sinkOffset = 0;
    int sinkPeerId = -1;

    std::vector<std::unique_ptr<Disklet>> stages;
    std::vector<std::unique_ptr<Stream>> streams;

    std::uint64_t sunkBytes = 0;
    std::uint64_t sunkBlocks = 0;
    bool armed = false;
};

} // namespace howsim::diskos

#endif // HOWSIM_DISKOS_DISKLET_HH
