/**
 * @file
 * Extension bench: the hybrid DRAM + RC-NVM tier on the OLXP
 * service workload. Sweeps the offered open-loop OLTP load (skewed
 * toward a hot tuple set) against a closed-loop OLAP column-scan
 * background on five placements — pure DRAM, pure RC-NVM, and the
 * hybrid tier under each migration policy (rbla, hotpage,
 * orientation) — and reports tail latency, saturation knees, and the
 * tier's own migration statistics.
 *
 * The study machine shrinks the LLC to 1 MB and sizes the table so
 * the OLTP hot set (12.5% of the table) is cache-contested but fits
 * the 2 MB near tier: hot rows promoted to DRAM serve point lookups
 * at DRAM latency while the scan background keeps streaming RC-NVM
 * columns from the retained far copies. Pure DRAM drags full tuples
 * through the hierarchy for every scan; pure RC-NVM pays the slow
 * NVM activate on every hot-row miss. A locality-aware hybrid should
 * therefore hold the OLTP tail below both static placements.
 *
 * `--smoke` runs a reduced sweep for CI. RCNVM_SEED reseeds tables
 * and generators; the same seed reproduces identical statistics.
 */

#include <cstdint>
#include <cstring>
#include <iostream>
#include <tuple>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "olxp/serve/serve_scheduler.hh"

using namespace rcnvm;

namespace {

/** One placement under study: a machine-config factory plus label. */
struct Placement {
    std::string label;
    cpu::MachineConfig config;
    bool hybrid = false;
};

struct SweepPoint {
    Tick interArrival{0};
    olxp::serve::ServeResult result;

    double offered() const
    {
        return 1.0e6 / static_cast<double>(interArrival.value());
    }
};

std::string
usLabel(double ticks)
{
    return bench::num(ticks / 1.0e6, 2);
}

/** Shrink the cache so the hot set is memory-resident, not
 *  LLC-resident: the tier study measures memory placement, and an
 *  8 MB LLC would simply absorb the whole hot set. */
void
shrinkCaches(cpu::MachineConfig &config)
{
    config.hierarchy.l3 =
        cache::CacheConfig{"L3", 1024 * 1024, 64, 8};
}

} // namespace

int
main(int argc, char **argv)
{
    if (bench::handleUsage(
            argc, argv, "ext_hybrid_tier",
            "Extension bench: hybrid DRAM + RC-NVM tier vs the "
            "static placements\non the OLXP service workload "
            "(hot-set OLTP stream over an OLAP\ncolumn-scan "
            "background), one sweep per migration policy.",
            {"--smoke  reduced sweep (smaller table, fewer load "
             "points) for CI"}))
        return 0;

    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    util::setLogLevel(util::LogLevel::Quiet);

    // 128 B tuples: 65536 tuples = 8 MB of table, hot set 1 MB =
    // 128 far rows, within the hybrid machine's 2 MB near tier.
    const std::uint64_t tuples =
        bench::benchTuples(smoke ? 32768 : 65536);
    const std::uint64_t seed = util::envSeed(42);

    // The OLXP scheduler's FIFO mode (DESIGN.md 4d): a hot-set OLTP
    // tenant against three scan streams sharing one cursor.
    olxp::serve::TenantConfig oltp;
    oltp.name = "oltp";
    oltp.cls = olxp::serve::TenantClass::OltpLatency;
    oltp.oltpUpdateFraction = 0.2;
    oltp.oltpHotTupleFraction = 0.125;
    oltp.oltpHotProbability = 0.8;
    olxp::serve::TenantConfig olap;
    olap.name = "olap";
    olap.cls = olxp::serve::TenantClass::OlapThroughput;
    olap.segmentTuples = 512;
    olap.segmentParallelism = 3;

    olxp::serve::ServeConfig service;
    service.oltpFirst = false;
    service.slo = false;
    service.optimizer = false;
    service.scanFields = 1;
    service.horizon = smoke ? Tick{12000000} : Tick{30000000};
    service.runQueueCapacity = 64;

    const std::vector<Tick> loads =
        smoke ? std::vector<Tick>{Tick{100000}, Tick{25000}}
              : std::vector<Tick>{Tick{200000}, Tick{100000},
                                  Tick{50000}, Tick{25000},
                                  Tick{12500}};

    std::vector<Placement> placements;
    placements.push_back(
        {"dram", core::table1Machine(mem::DeviceKind::Dram), false});
    placements.push_back(
        {"rcnvm", core::table1Machine(mem::DeviceKind::RcNvm),
         false});
    for (const auto policy : {mem::MigrationPolicyKind::Rbla,
                              mem::MigrationPolicyKind::HotPage,
                              mem::MigrationPolicyKind::Orientation}) {
        placements.push_back(
            {std::string("hybrid-") + mem::toString(policy),
             core::hybridTable1Machine(policy), true});
    }
    for (Placement &p : placements) {
        shrinkCaches(p.config);
        p.config.seed = seed;
    }

    core::ArtifactWriter artifacts("ext_hybrid_tier");

    util::TablePrinter t(
        "Extension: hybrid memory tier, OLXP service sweep (latency "
        "in us; offered load in OLTP req/us; hot set " +
        bench::num(100.0 * oltp.oltpHotTupleFraction, 1) +
        "% of table, P(hot) = " +
        bench::num(oltp.oltpHotProbability, 2) + ")");
    t.addRow({"placement", "offered", "oltp done", "rej", "p50",
              "p99", "olap done", "promo", "demo", "nearHit%"});

    std::vector<std::vector<SweepPoint>> sweeps;
    for (const Placement &p : placements) {
        const mem::DeviceKind kind = p.config.device;
        mem::AddressMap map(p.config.geometry
                                ? mem::AddressMap(*p.config.geometry)
                                : mem::AddressMap(
                                      mem::geometryFor(kind)));
        const workload::TableSet tables =
            workload::TableSet::standard(tuples, 1024, seed);
        const workload::QueryWorkload workload(tables);
        const workload::PlacedDatabase pd = workload.place(kind, map);

        std::vector<SweepPoint> sweep;
        for (const Tick ia : loads) {
            cpu::Machine machine(p.config);

            olxp::serve::ServeConfig cfg = service;
            cfg.tenants = {oltp, olap};
            cfg.tenants[0].oltpInterArrival = ia;
            olxp::serve::ServeScheduler scheduler(machine, pd, cfg);

            SweepPoint point;
            point.interArrival = ia;
            point.result = scheduler.run();
            if (artifacts.enabled()) {
                artifacts.record(p.label + "-ia" +
                                     std::to_string(ia.value()),
                                 point.result.run.stats,
                                 point.result.run.ticks);
            }

            const olxp::serve::ServeResult &r = point.result;
            const util::StatsMap &s = r.run.stats;
            const double promos = s.get("tier.promotions");
            const double demos = s.get("tier.demotions");
            const double hitRate = s.get("tier.nearHitRate");
            t.addRow({p.label, bench::num(point.offered(), 2),
                      std::to_string(r.oltpCompleted),
                      std::to_string(r.oltpRejected),
                      usLabel(r.oltpP50), usLabel(r.oltpP99),
                      std::to_string(r.segmentsCompleted),
                      p.hybrid ? bench::num(promos, 0) : "-",
                      p.hybrid ? bench::num(demos, 0) : "-",
                      p.hybrid ? bench::num(100.0 * hitRate, 1)
                               : "-"});
            sweep.push_back(std::move(point));
        }
        sweeps.push_back(std::move(sweep));
    }
    t.print(std::cout);

    // Knee: highest offered load whose p99 stays under 2x the
    // placement's own lightest-load baseline with no rejects.
    std::cout << "\nsaturation knees (p99 < 2x own baseline, no "
                 "rejects):\n";
    std::vector<double> knees;
    for (std::size_t d = 0; d < sweeps.size(); ++d) {
        const std::vector<SweepPoint> &sweep = sweeps[d];
        const double base = sweep.front().result.oltpP99;
        double knee = 0;
        for (const SweepPoint &p : sweep) {
            if (p.result.oltpP99 < 2.0 * base &&
                p.result.oltpRejected == 0)
                knee = std::max(knee, p.offered());
        }
        knees.push_back(knee);
        std::cout << "  " << placements[d].label << ": "
                  << bench::num(knee, 2) << " req/us (baseline p99 "
                  << usLabel(base) << " us)\n";
    }

    // Verdict: does any migration policy beat BOTH static
    // placements on OLTP tail service at the heaviest load point?
    // Rank lexicographically by (p99, rejects, -completions) — at
    // equal tail latency, fewer admission drops and more completed
    // requests is strictly better service.
    const auto score = [](const olxp::serve::ServeResult &r) {
        return std::make_tuple(
            r.oltpP99, r.oltpRejected,
            -static_cast<std::int64_t>(r.oltpCompleted));
    };
    const olxp::serve::ServeResult &dram_h = sweeps[0].back().result;
    const olxp::serve::ServeResult &rc_h = sweeps[1].back().result;
    int best = -1;
    for (std::size_t d = 2; d < sweeps.size(); ++d) {
        const olxp::serve::ServeResult &h = sweeps[d].back().result;
        if (score(h) < score(dram_h) && score(h) < score(rc_h) &&
            (best < 0 ||
             score(h) < score(sweeps[best].back().result)))
            best = static_cast<int>(d);
    }
    std::cout << "\nheadline: at the heaviest load, pure DRAM p99 = "
              << usLabel(dram_h.oltpP99) << " us ("
              << dram_h.oltpRejected << " rejects), pure RC-NVM "
              << "p99 = " << usLabel(rc_h.oltpP99) << " us ("
              << rc_h.oltpRejected << " rejects)";
    if (best >= 0) {
        const olxp::serve::ServeResult &h = sweeps[best].back().result;
        std::cout << "; " << placements[best].label
                  << " beats both at p99 = " << usLabel(h.oltpP99)
                  << " us (" << h.oltpRejected << " rejects, "
                  << h.oltpCompleted << " completed).\n";
    } else {
        std::cout << "; no hybrid policy beat both statics.\n";
        std::cout << "WARNING: expected >= 1 migration policy to "
                     "win\n";
        // The smoke sweep has too few tail samples to rank
        // placements reliably; it validates the tier pipeline, the
        // full sweep enforces the result.
        return smoke ? 0 : 1;
    }
    return 0;
}
