#include "core/experiment.hh"

#include <cstdlib>
#include <fstream>

#include "core/presets.hh"
#include "util/random.hh"
#include "util/stats_io.hh"

namespace rcnvm::core {

namespace {

/** Apply the RCNVM_EPOCH_TICKS environment override: callers that
 *  did not configure epoch sampling get it turned on externally
 *  (e.g. by CI) without recompiling. */
cpu::MachineConfig
withEpochOverride(cpu::MachineConfig config)
{
    if (config.epochTicks == Tick{}) {
        // Strict parse: a malformed value must fail loudly, not
        // silently disable sampling (raw strtoull yielded 0 here).
        config.epochTicks = Tick{util::envUint64("RCNVM_EPOCH_TICKS", 0)};
    }
    return config;
}

} // namespace

ExperimentResult
runStreamed(const cpu::MachineConfig &config,
            workload::QueryStreams query)
{
    cpu::Machine machine(withEpochOverride(config));
    ExperimentResult result;
    cpu::RunResult last;
    for (std::vector<cpu::OpStream> &phase : query.phases) {
        // A phase's sources exist only while it runs.
        std::vector<cpu::StreamOpSource> sources;
        sources.reserve(phase.size());
        std::vector<cpu::OpSource *> cores;
        for (cpu::OpStream &s : phase)
            cores.push_back(&sources.emplace_back(std::move(s)));
        last = machine.runSources(cores);
        result.ticks += last.ticks;
        // Per-phase series chain into one continuous timeline.
        if (result.series.names.empty())
            result.series.names = last.series.names;
        result.series.ticks.insert(result.series.ticks.end(),
                                   last.series.ticks.begin(),
                                   last.series.ticks.end());
        result.series.rows.insert(result.series.rows.end(),
                                  last.series.rows.begin(),
                                  last.series.rows.end());
    }
    result.stats = last.stats; // counters accumulate across phases
    return result;
}

ExperimentResult
runStreamed(const cpu::MachineConfig &config,
            std::vector<cpu::OpStream> cores)
{
    workload::QueryStreams query;
    query.phases.push_back(std::move(cores));
    return runStreamed(config, std::move(query));
}

ExperimentResult
runQuery(mem::DeviceKind kind,
         const workload::QueryWorkload &workload,
         workload::QueryId id, unsigned group_lines)
{
    const cpu::MachineConfig config = table1Machine(kind);
    // Placement only needs the address map, which is a pure function
    // of the device geometry.
    mem::AddressMap map(mem::geometryFor(kind));
    const workload::PlacedDatabase pd = workload.place(kind, map);
    return runStreamed(config,
                       workload.stream(id, pd, config.hierarchy.cores,
                                       group_lines));
}

ExperimentResult
runMicro(mem::DeviceKind kind, const workload::TableSet &tables,
         workload::MicroBench mb, imdb::ChunkLayout layout,
         unsigned cores)
{
    const cpu::MachineConfig config = table1Machine(kind);
    mem::AddressMap map(mem::geometryFor(kind));
    imdb::Database db(kind, map);
    const imdb::Database::TableId tid =
        db.addTable(tables.micro.get(), layout);
    return runStreamed(config,
                       workload::streamMicro(
                           db, tid, mb,
                           cores > 0 ? cores : config.hierarchy.cores));
}

ArtifactWriter::ArtifactWriter(std::string name)
    : name_(std::move(name))
{
    if (const char *env = std::getenv("RCNVM_STATS_DIR"))
        dir_ = env;
}

void
ArtifactWriter::record(const std::string &label,
                       const ExperimentResult &r)
{
    if (!enabled())
        return;
    runs_.push_back(Run{label, r.stats, r.ticks, r.series});
}

void
ArtifactWriter::record(const std::string &label,
                       const util::StatsMap &stats, Tick ticks)
{
    if (!enabled())
        return;
    runs_.push_back(Run{label, stats, ticks, {}});
}

ArtifactWriter::~ArtifactWriter()
{
    if (!enabled() || runs_.empty())
        return;

    std::ofstream json(dir_ + "/" + name_ + ".json");
    json << "{\"schema\": \"rcnvm-stats-artifact-v1\", \"bench\": \""
         << util::jsonEscape(name_) << "\", \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        if (i)
            json << ", ";
        util::writeStatsJson(json, runs_[i].stats, runs_[i].label,
                             runs_[i].ticks);
    }
    json << "]}\n";

    std::ofstream csv(dir_ + "/" + name_ + ".csv");
    csv << "label,stat,value\n";
    for (const Run &r : runs_)
        util::writeStatsCsv(csv, r.stats, r.label);

    for (const Run &r : runs_) {
        if (r.series.empty())
            continue;
        std::ofstream epochs(dir_ + "/" + name_ + "." + r.label +
                             ".epochs.csv");
        r.series.writeCsv(epochs);
    }
}

} // namespace rcnvm::core
