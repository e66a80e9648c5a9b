/**
 * @file
 * Extension bench: replay a captured binary access trace across the
 * four Table-1 device models. This is the real-trace frontend — the
 * workload comes from a file (converted from the text format or a
 * drcachesim listing by tools/rcnvm_trace_convert) instead of a
 * generator, so the same memory-reference stream can be replayed on
 * DRAM, RRAM, RC-NVM, and GS-DRAM and compared with the standard
 * stats pipeline.
 *
 * By default each device streams the trace through the mmap'd
 * reader and per-core demux (bounded memory regardless of trace
 * size). `--fixed-plan` materialises the trace as per-core plans and
 * replays through Machine::run instead — the two paths are
 * golden-tested to produce byte-identical statistics, and CI diffs
 * their stats JSON. `--smoke` restricts to RC-NVM + DRAM for CI.
 *
 * A trace may use operations a device cannot execute (column ops on
 * DRAM, gathered loads anywhere but GS-DRAM). Following the paper's
 * methodology — row-only baselines run the same logical workload
 * through row accesses — such operations are degraded to their
 * row-oriented equivalents, identically on both replay paths.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/presets.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_demux.hh"
#include "trace/trace_reader.hh"

using namespace rcnvm;

namespace {

/** Degrade @p op to what @p caps can execute (identity when the
 *  device supports it natively). */
cpu::MemOp
adaptOp(cpu::MemOp op, const mem::DeviceCaps &caps)
{
    if (!caps.columnAccess) {
        if (op.kind == cpu::OpKind::CLoad)
            op.kind = cpu::OpKind::Load;
        else if (op.kind == cpu::OpKind::CStore)
            op.kind = cpu::OpKind::Store;
        op.pinOrient = Orientation::Row;
    }
    if (!caps.gather && op.kind == cpu::OpKind::GLoad)
        op.kind = cpu::OpKind::Load;
    return op;
}

/** Pull-through OpSource applying adaptOp to a wrapped stream. */
class AdaptSource final : public cpu::OpSource
{
  public:
    void
    bind(cpu::OpSource &inner, const mem::DeviceCaps &caps)
    {
        inner_ = &inner;
        caps_ = &caps;
    }

    const cpu::MemOp *
    peek() override
    {
        const cpu::MemOp *head = inner_->peek();
        if (head == nullptr)
            return nullptr;
        cached_ = adaptOp(*head, *caps_);
        return &cached_;
    }

    void advance() override { inner_->advance(); }

  private:
    cpu::OpSource *inner_ = nullptr;
    const mem::DeviceCaps *caps_ = nullptr;
    cpu::MemOp cached_;
};

} // namespace

int
main(int argc, char **argv)
{
    if (bench::handleUsage(
            argc, argv, "ext_trace_replay",
            "Extension bench: replay a binary access trace (see\n"
            "tools/rcnvm_trace_convert) across the Table-1 device "
            "models with\nthe standard stats pipeline.",
            {"--smoke       RC-NVM + DRAM only (CI)",
             "--fixed-plan  materialise the trace and replay "
             "through the\n               fixed-plan path instead "
             "of streaming",
             "<trace.rtb>   binary trace file (required)"}))
        return 0;

    bool smoke = false;
    bool fixedPlan = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--fixed-plan") == 0)
            fixedPlan = true;
        else if (argv[i][0] == '-')
            rcnvm_fatal("unknown option ", argv[i],
                        " (see --help)");
        else if (!path.empty())
            rcnvm_fatal("more than one trace file given");
        else
            path = argv[i];
    }
    if (path.empty())
        rcnvm_fatal("no trace file given; convert one with "
                    "rcnvm_trace_convert and pass <trace.rtb>");

    util::setLogLevel(util::LogLevel::Quiet);

    const std::vector<mem::DeviceKind> devices =
        smoke ? std::vector<mem::DeviceKind>{mem::DeviceKind::RcNvm,
                                             mem::DeviceKind::Dram}
              : std::vector<mem::DeviceKind>{
                    mem::DeviceKind::Dram, mem::DeviceKind::Rram,
                    mem::DeviceKind::RcNvm,
                    mem::DeviceKind::GsDram};

    core::ArtifactWriter artifacts("ext_trace_replay");

    util::TablePrinter t(
        std::string("Extension: trace replay of ") + path + " (" +
        (fixedPlan ? "fixed-plan" : "streaming") + " path)");
    t.addRow({"device", "records", "time (us)", "Mcycles",
              "LLC misses", "bufMiss%"});

    for (const mem::DeviceKind kind : devices) {
        cpu::MachineConfig config = core::table1Machine(kind);
        cpu::Machine machine(config);

        // One fresh reader per device: replay consumes the stream.
        trace::MmapTraceReader reader(path);
        if (reader.header().coreCount > machine.coreCount())
            rcnvm_fatal("trace has ", reader.header().coreCount,
                        " core stream(s) but the machine has ",
                        machine.coreCount(),
                        " core(s); re-convert with fewer cores");

        const mem::DeviceCaps caps = mem::capsFor(kind);
        cpu::RunResult run;
        if (fixedPlan) {
            auto plans = trace::readBinaryTrace(path);
            for (auto &plan : plans) {
                for (cpu::MemOp &op : plan)
                    op = adaptOp(op, caps);
            }
            run = machine.run(plans);
        } else {
            trace::TraceDemux demux(reader);
            std::vector<AdaptSource> adapted(demux.coreCount());
            std::vector<cpu::OpSource *> sources;
            for (unsigned c = 0; c < demux.coreCount(); ++c) {
                adapted[c].bind(demux.source(c), caps);
                sources.push_back(&adapted[c]);
            }
            run = machine.runSources(sources);
        }

        if (artifacts.enabled())
            artifacts.record(mem::toString(kind), run.stats,
                             run.ticks);

        const double records =
            static_cast<double>(reader.header().recordCount);
        t.addRow({mem::toString(kind), bench::num(records, 0),
                  bench::num(static_cast<double>(run.ticks.value()) /
                                 1.0e6,
                             2),
                  bench::num(run.cycles() / 1.0e6, 2),
                  bench::num(run.stats.get("cache.llcMisses"), 0),
                  bench::num(
                      100.0 * run.stats.get("mem.bufferMissRate"),
                      1)});
    }
    t.print(std::cout);
    return 0;
}
