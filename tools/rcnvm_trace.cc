/**
 * @file
 * rcnvm_trace: the one front end to the access-trace formats, the
 * command-line counterpart of the paper's RCNVMTrace artifact;
 * usage() lists its commands.
 *
 * `dump` writes a Table-2 query as a binary trace (trace_binary);
 * usage() says what a multi-phase dump replays. `run` replays a
 * binary trace on the named devices, all four by default, streaming
 * it through the mmap reader and per-core demux. Operations a device
 * cannot execute run as their row-oriented equivalents, as the
 * paper's row-only baselines run the same logical workload.
 *
 * `convert` turns a binary trace into the text format (trace_io) and
 * anything else, parsed as text, into a binary trace. The
 * drcachesim subset accepts the memory-reference lines of a
 * `drcachesim -simulator_type view` (or `drmemtrace view`) listing:
 * any line containing, in order, a `T<tid>` thread token, a `read` /
 * `write` / `ifetch` type token, `<n> byte(s)`, and `@ <hex-addr>`.
 * Thread ids map to cores round-robin in order of first appearance
 * (modulo the core count, default 4); `ifetch` records are dropped
 * (the simulated hierarchy is data-only); marker and header lines are
 * skipped. Numeric fields are strictly validated — a malformed size
 * or address is a fatal error with the line number, never a silently
 * different trace. Addresses are kept whole; replay folds them onto
 * the device as its address map does (all four decode the low 32
 * bits), so a user-space listing runs as its folded twin.
 *
 * Bad usage, an unknown device or query exits 2; an unreadable or
 * malformed input is fatal and exits 1.
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "mem/memory_system.hh"
#include "trace/trace_binary.hh"
#include "trace/trace_demux.hh"
#include "trace/trace_io.hh"
#include "trace/trace_reader.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/table_printer.hh"

using namespace rcnvm;

namespace {

int
usage()
{
    std::cerr
        << "usage:\n"
           "  rcnvm_trace list\n"
           "  rcnvm_trace dump <Q1..Q15> <device> <out.rtb>\n"
           "  rcnvm_trace run <trace.rtb> [device ...]\n"
           "  rcnvm_trace convert <in> <out>\n"
           "  rcnvm_trace convert --drcachesim <in.txt> <out.rtb> "
           "[cores]\n"
           "  rcnvm_trace info <trace.rtb>\n"
           "devices: rcnvm, rram, dram, gsdram (run: all four when "
           "none is named)\n"
           "dump scales with RCNVM_TUPLES (default 65536) and puts a "
           "fence on every core\nbetween a query's phases. A fence "
           "drains only its own core, so the replay\nof a multi-phase "
           "query (Q8, Q9) overlaps its phases and runs a few "
           "percent\nfaster than the phase-by-phase run; single-phase "
           "queries replay tick-exact.\n"
           "convert turns a binary trace into text and anything else "
           "(parsed as text)\ninto a binary trace.\n";
    return 2;
}

/** Device names, in the order `run` replays them by default. */
constexpr std::pair<const char *, mem::DeviceKind> kDevices[] = {
    {"dram", mem::DeviceKind::Dram},
    {"rram", mem::DeviceKind::Rram},
    {"rcnvm", mem::DeviceKind::RcNvm},
    {"gsdram", mem::DeviceKind::GsDram},
};

bool
parseDevice(const std::string &name, mem::DeviceKind &kind)
{
    for (const auto &[device, k] : kDevices) {
        if (name == device) {
            kind = k;
            return true;
        }
    }
    return false;
}

bool
parseQuery(const std::string &name, workload::QueryId &id)
{
    for (const auto &spec : workload::allQueries()) {
        if (name == spec.name) {
            id = spec.id;
            return true;
        }
    }
    return false;
}

/** Strictly parse a numeric CLI/trace token; fatal with context. */
std::uint64_t
parseNumber(const std::string &token, const char *what,
            unsigned line_no)
{
    std::uint64_t value = 0;
    switch (util::parseUint64(token.c_str(), value)) {
      case util::ParseUint::Ok:
        return value;
      case util::ParseUint::Overflow:
        rcnvm_fatal("line ", line_no, ": ", what, " '", token,
                    "' overflows 64 bits");
      case util::ParseUint::Malformed:
        break;
    }
    rcnvm_fatal("line ", line_no, ": ", what, " '", token,
                "' is not a valid decimal or 0x-hex unsigned "
                "integer");
}

/** Write @p plans as a binary trace and report what was written. */
void
writePlans(const std::string &path,
           const std::vector<cpu::AccessPlan> &plans)
{
    trace::writeBinaryTrace(path, plans);
    std::uint64_t ops = 0;
    for (const auto &plan : plans)
        ops += plan.size();
    std::cout << "wrote " << ops << " record(s) for " << plans.size()
              << " core(s) to " << path << "\n";
}

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
    AdaptSource(cpu::OpSource &inner, const mem::DeviceCaps &caps)
        : inner_(inner), caps_(caps)
    {}

    const cpu::MemOp *
    peek() override
    {
        const cpu::MemOp *head = inner_.peek();
        if (head == nullptr)
            return nullptr;
        cached_ = adaptOp(*head, caps_);
        return &cached_;
    }

    void advance() override { inner_.advance(); }

  private:
    cpu::OpSource &inner_;
    mem::DeviceCaps caps_;
    cpu::MemOp cached_;
};

int
cmdList()
{
    for (const auto &spec : workload::allQueries()) {
        std::cout << spec.name << "  [" << spec.category << "]  "
                  << spec.sql << "\n";
    }
    return 0;
}

int
cmdDump(const std::string &query_name, const std::string &device,
        const std::string &path)
{
    workload::QueryId id;
    mem::DeviceKind kind;
    if (!parseQuery(query_name, id) || !parseDevice(device, kind))
        return usage();

    const workload::TableSet tables = workload::TableSet::standard(
        util::envUint64("RCNVM_TUPLES", 65536));
    const workload::QueryWorkload wl(tables);
    mem::AddressMap map(mem::geometryFor(kind));
    const workload::PlacedDatabase pd = wl.place(kind, map);
    const workload::CompiledQuery q = wl.compile(id, pd);

    std::vector<cpu::AccessPlan> plans;
    for (std::size_t phase = 0; phase < q.phases.size(); ++phase) {
        const std::vector<cpu::AccessPlan> &cores = q.phases[phase];
        if (plans.size() < cores.size())
            plans.resize(cores.size());
        for (std::size_t c = 0; c < cores.size(); ++c) {
            plans[c].insert(plans[c].end(), cores[c].begin(),
                            cores[c].end());
            if (phase + 1 < q.phases.size())
                plans[c].push_back(cpu::MemOp::fence());
        }
    }
    writePlans(path, plans);
    return 0;
}

int
cmdRun(const std::string &path, const std::vector<mem::DeviceKind> &devices)
{
    core::ArtifactWriter artifacts("rcnvm_trace");
    util::TablePrinter t("Trace replay of " + path);
    t.addRow({"device", "records", "time (us)", "Mcycles",
              "LLC misses", "bufMiss%"});

    for (const mem::DeviceKind kind : devices) {
        cpu::Machine machine(core::table1Machine(kind));

        // One fresh reader per device: replay consumes the stream.
        trace::MmapTraceReader reader(path);
        if (reader.header().coreCount > machine.coreCount())
            rcnvm_fatal("trace has ", reader.header().coreCount,
                        " core stream(s) but the machine has ",
                        machine.coreCount(),
                        " core(s); re-convert with fewer cores");

        const mem::DeviceCaps caps = mem::capsFor(kind);
        trace::TraceDemux demux(reader);
        std::vector<AdaptSource> adapted;
        adapted.reserve(demux.coreCount());
        std::vector<cpu::OpSource *> sources;
        for (unsigned c = 0; c < demux.coreCount(); ++c) {
            adapted.emplace_back(demux.source(c), caps);
            sources.push_back(&adapted.back());
        }
        const cpu::RunResult run = machine.runSources(sources);
        artifacts.record(mem::toString(kind), run.stats, run.ticks);

        using util::TablePrinter;
        t.addRow(
            {mem::toString(kind),
             TablePrinter::num(
                 static_cast<double>(reader.header().recordCount), 0),
             TablePrinter::num(
                 static_cast<double>(run.ticks.value()) / 1.0e6, 2),
             TablePrinter::num(run.cycles() / 1.0e6, 2),
             TablePrinter::num(run.stats.get("cache.llcMisses"), 0),
             TablePrinter::num(
                 100.0 * run.stats.get("mem.bufferMissRate"), 1)});
    }
    t.print(std::cout);
    return 0;
}

/** Binary -> text. The text format carries no byte count on loads
 *  (L/CL lines), so a load of another size cannot round-trip. */
void
binaryToText(const std::string &in, const std::string &out)
{
    const auto plans = trace::readBinaryTrace(in);
    std::uint64_t lossy = 0;
    for (const auto &plan : plans) {
        for (const cpu::MemOp &op : plan) {
            if ((op.kind == cpu::OpKind::Load ||
                 op.kind == cpu::OpKind::CLoad) &&
                op.bytes != 64)
                ++lossy;
        }
    }
    if (lossy > 0)
        util::warn(lossy, " load record(s) carry a non-default size;"
                          " the text format writes them as 64-byte "
                          "loads");

    std::ofstream file(out);
    if (!file)
        rcnvm_fatal("cannot open ", out, " for writing");
    trace::writeTrace(file, plans);
    std::cout << "wrote " << plans.size() << " core section(s) to "
              << out << "\n";
}

int
cmdConvert(const std::string &in, const std::string &out)
{
    std::ifstream file(in, std::ios::binary);
    if (!file)
        rcnvm_fatal("cannot open trace file ", in);
    char magic[sizeof(trace::kTraceMagic)] = {};
    file.read(magic, sizeof(magic));
    if (file.gcount() == sizeof(magic) &&
        std::memcmp(magic, trace::kTraceMagic, sizeof(magic)) == 0) {
        binaryToText(in, out);
        return 0;
    }
    file.clear();
    file.seekg(0);
    writePlans(out, trace::readTrace(file));
    return 0;
}

int
cmdDrcachesim(const std::string &in, const std::string &out,
              std::uint64_t core_count)
{
    std::ifstream file(in);
    if (!file)
        rcnvm_fatal("cannot open drcachesim listing ", in);

    trace::BinaryTraceWriter writer(
        out, static_cast<unsigned>(core_count));
    std::map<std::uint64_t, unsigned> tidToCore;
    std::uint64_t converted = 0, ifetches = 0, skipped = 0;
    unsigned line_no = 0;
    std::string line;

    while (std::getline(file, line)) {
        ++line_no;
        std::istringstream ls(line);
        std::string token, type;
        std::uint64_t tid = 0;
        bool haveTid = false;

        // Scan for the `T<tid>` token; everything before it
        // (ordinals, timestamps) is presentation.
        while (ls >> token) {
            if (token.size() > 1 && token[0] == 'T' &&
                util::parseUint64(token.c_str() + 1, tid) ==
                    util::ParseUint::Ok) {
                haveTid = true;
                break;
            }
        }
        if (!haveTid || !(ls >> type)) {
            ++skipped;
            continue;
        }
        if (type == "ifetch") {
            ++ifetches;
            continue;
        }
        if (type != "read" && type != "write") {
            ++skipped; // markers and other record kinds
            continue;
        }

        std::string sizeTok, byteWord, at, addrTok;
        if (!(ls >> sizeTok >> byteWord >> at >> addrTok) ||
            byteWord != "byte(s)" || at != "@") {
            rcnvm_fatal("line ", line_no, ": malformed ", type,
                        " record (expected '<n> byte(s) @ "
                        "<addr>')");
        }
        const std::uint64_t size =
            parseNumber(sizeTok, "size", line_no);
        if (size == 0 ||
            size > std::numeric_limits<std::uint32_t>::max())
            rcnvm_fatal("line ", line_no, ": size ", size,
                        " is outside the supported 1..2^32-1 "
                        "range");
        const std::uint64_t addr =
            parseNumber(addrTok, "address", line_no);

        const auto [it, inserted] = tidToCore.try_emplace(
            tid, static_cast<unsigned>(tidToCore.size() %
                                       core_count));
        const unsigned core = it->second;
        (void)inserted;
        writer.append(
            core, type == "read"
                      ? cpu::MemOp::load(
                            addr, static_cast<std::uint32_t>(size))
                      : cpu::MemOp::store(
                            addr, static_cast<std::uint32_t>(size)));
        ++converted;
    }
    writer.finalize();

    std::cout << "converted " << converted << " record(s) from "
              << tidToCore.size() << " thread(s) onto " << core_count
              << " core(s) (" << ifetches << " ifetch dropped, "
              << skipped << " non-reference line(s) skipped) to "
              << out << "\n";
    if (converted == 0)
        rcnvm_fatal("no memory-reference lines recognised in ", in,
                    " (expected drcachesim view listing lines: "
                    "'T<tid> read|write <n> byte(s) @ <addr>')");
    return 0;
}

int
cmdInfo(const std::string &in)
{
    trace::MmapTraceReader reader(in);
    const trace::TraceFileHeader &h = reader.header();
    std::cout << "file:     " << in << "\n"
              << "version:  " << h.version << "\n"
              << "cores:    " << h.coreCount << "\n"
              << "records:  " << h.recordCount << "\n";
    for (std::size_t c = 0; c < reader.coreRecordCounts().size();
         ++c) {
        std::cout << "  core " << c << ": "
                  << reader.coreRecordCounts()[c] << " record(s)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::setLogLevel(util::LogLevel::Quiet);
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string &cmd = args[0];
    const std::size_t n = args.size();

    if (cmd == "list" && n == 1)
        return cmdList();
    if (cmd == "dump" && n == 4)
        return cmdDump(args[1], args[2], args[3]);
    if (cmd == "run" && n >= 2) {
        std::vector<mem::DeviceKind> devices;
        for (std::size_t i = 2; i < n; ++i) {
            mem::DeviceKind kind;
            if (!parseDevice(args[i], kind))
                return usage();
            devices.push_back(kind);
        }
        if (devices.empty()) {
            for (const auto &[device, kind] : kDevices)
                devices.push_back(kind);
        }
        return cmdRun(args[1], devices);
    }
    if (cmd == "convert" && n >= 2 && args[1] == "--drcachesim") {
        if (n != 4 && n != 5)
            return usage();
        std::uint64_t cores = 4;
        if (n == 5) {
            cores = parseNumber(args[4], "core count", 0);
            if (cores == 0 || cores > 256)
                rcnvm_fatal("core count must be 1..256, got ",
                            cores);
        }
        return cmdDrcachesim(args[2], args[3], cores);
    }
    if (cmd == "convert" && n == 3)
        return cmdConvert(args[1], args[2]);
    if (cmd == "info" && n == 2)
        return cmdInfo(args[1]);
    return usage();
}
