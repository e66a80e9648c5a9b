/**
 * @file
 * Numeric golden for query compilation: an FNV-1a hash of every
 * per-core operation stream QueryWorkload::stream generates (and
 * QueryWorkload::compile drains into plans), for Q1-Q15
 * on the four devices at 1 and 4 cores, plus the group-caching
 * queries Q14/Q15 at 0, 16 and 128 group lines, on a CI-scale table
 * set. It covers compiler paths the timed suite never reaches (one
 * core, the group-caching transform, the row-layout fallbacks); a
 * change that reorders, drops or adds a single operation moves a
 * hash, and a failure names the case.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fnv1a.hh"
#include "mem/memory_system.hh"
#include "workload/queries.hh"

namespace rcnvm::workload {
namespace {

constexpr mem::DeviceKind kDevices[] = {
    mem::DeviceKind::RcNvm, mem::DeviceKind::Rram,
    mem::DeviceKind::GsDram, mem::DeviceKind::Dram};

/** Fold one operation, field by field. */
void
foldOp(test::Fnv1a &h, const cpu::MemOp &op)
{
    h.byte(static_cast<unsigned char>(op.kind));
    h.word(op.addr);
    h.word(op.bytes);
    h.word(op.computeCycles);
    h.byte(static_cast<unsigned char>(op.pinOrient));
}

/** Hash of a compiled query: per phase and core, the stream's
 *  operations followed by its length. */
std::uint64_t
hashQuery(const CompiledQuery &q)
{
    test::Fnv1a h;
    for (std::size_t p = 0; p < q.phases.size(); ++p) {
        for (std::size_t c = 0; c < q.phases[p].size(); ++c) {
            h.word(p);
            h.word(c);
            for (const cpu::MemOp &op : q.phases[p][c])
                foldOp(h, op);
            h.word(q.phases[p][c].size());
        }
    }
    return h.hash;
}

/** The same hash over the generators themselves, pulled one
 *  operation at a time. */
std::uint64_t
hashStreams(QueryStreams q)
{
    test::Fnv1a h;
    for (std::size_t p = 0; p < q.phases.size(); ++p) {
        for (std::size_t c = 0; c < q.phases[p].size(); ++c) {
            h.word(p);
            h.word(c);
            std::uint64_t n = 0;
            while (const cpu::MemOp *op = q.phases[p][c].next()) {
                foldOp(h, *op);
                ++n;
            }
            h.word(n);
        }
    }
    return h.hash;
}

/** "Q14/RC-NVM/c4/g16"-style case name (no group for the default). */
std::string
caseName(QueryId id, mem::DeviceKind kind, unsigned cores,
         unsigned group)
{
    std::string s = std::string(querySpec(id).name) + "/" +
                    mem::toString(kind) + "/c" + std::to_string(cores);
    if (group != QueryWorkload::kDefaultGroup)
        s += "/g" + std::to_string(group);
    return s;
}

// Captured from the materialised compiler before plans were streamed.
const std::map<std::string, std::uint64_t> kGolden = {
    {"Q1/RC-NVM/c1", 10549028503402842689ull},
    {"Q1/RC-NVM/c4", 2633856064587664619ull},
    {"Q2/RC-NVM/c1", 1525340546910210422ull},
    {"Q2/RC-NVM/c4", 764738602170467520ull},
    {"Q3/RC-NVM/c1", 7280104297441210783ull},
    {"Q3/RC-NVM/c4", 6846074406268102687ull},
    {"Q4/RC-NVM/c1", 7034828144120320243ull},
    {"Q4/RC-NVM/c4", 12775313112519343195ull},
    {"Q5/RC-NVM/c1", 7351729184032765683ull},
    {"Q5/RC-NVM/c4", 18166145888501788251ull},
    {"Q6/RC-NVM/c1", 4652771188941680883ull},
    {"Q6/RC-NVM/c4", 11780013120353196635ull},
    {"Q7/RC-NVM/c1", 3654152076551269619ull},
    {"Q7/RC-NVM/c4", 903059563288697435ull},
    {"Q8/RC-NVM/c1", 11278283883070113718ull},
    {"Q8/RC-NVM/c4", 18425036100854787687ull},
    {"Q9/RC-NVM/c1", 1300013238220604564ull},
    {"Q9/RC-NVM/c4", 774142756131790309ull},
    {"Q10/RC-NVM/c1", 10036057791973210361ull},
    {"Q10/RC-NVM/c4", 3887498180685740778ull},
    {"Q11/RC-NVM/c1", 10477195546528351478ull},
    {"Q11/RC-NVM/c4", 7356288577563870705ull},
    {"Q12/RC-NVM/c1", 12499376477609780975ull},
    {"Q12/RC-NVM/c4", 6435536479487479695ull},
    {"Q13/RC-NVM/c1", 8258003387172428514ull},
    {"Q13/RC-NVM/c4", 3344632076525975779ull},
    {"Q14/RC-NVM/c1", 13045641640246824895ull},
    {"Q14/RC-NVM/c4", 8390655966021494927ull},
    {"Q15/RC-NVM/c1", 4969406195044099263ull},
    {"Q15/RC-NVM/c4", 1412759832031853863ull},
    {"Q14/RC-NVM/c1/g0", 6295073848384815711ull},
    {"Q14/RC-NVM/c1/g16", 15893251215547893909ull},
    {"Q14/RC-NVM/c1/g128", 13045641640246824895ull},
    {"Q14/RC-NVM/c4/g0", 18315635644348277119ull},
    {"Q14/RC-NVM/c4/g16", 5934240086156464223ull},
    {"Q14/RC-NVM/c4/g128", 8390655966021494927ull},
    {"Q15/RC-NVM/c1/g0", 6086815226995365619ull},
    {"Q15/RC-NVM/c1/g16", 1398667551753821980ull},
    {"Q15/RC-NVM/c1/g128", 4969406195044099263ull},
    {"Q15/RC-NVM/c4/g0", 6322217705472015323ull},
    {"Q15/RC-NVM/c4/g16", 4901471421987218063ull},
    {"Q15/RC-NVM/c4/g128", 1412759832031853863ull},
    {"Q1/RRAM/c1", 9619285593797541517ull},
    {"Q1/RRAM/c4", 7646657288009514635ull},
    {"Q2/RRAM/c1", 17346811177295414923ull},
    {"Q2/RRAM/c4", 2045782802695590955ull},
    {"Q3/RRAM/c1", 6050525738014920835ull},
    {"Q3/RRAM/c4", 5347561357917732995ull},
    {"Q4/RRAM/c1", 14101969114000292294ull},
    {"Q4/RRAM/c4", 7337511126890233830ull},
    {"Q5/RRAM/c1", 8285400380248910930ull},
    {"Q5/RRAM/c4", 18024383008447730463ull},
    {"Q6/RRAM/c1", 3813965114858881158ull},
    {"Q6/RRAM/c4", 12816140201566020390ull},
    {"Q7/RRAM/c1", 10220722081173845155ull},
    {"Q7/RRAM/c4", 16467006004482258582ull},
    {"Q8/RRAM/c1", 7463021518154554900ull},
    {"Q8/RRAM/c4", 14343231176737464407ull},
    {"Q9/RRAM/c1", 3286697716114128455ull},
    {"Q9/RRAM/c4", 16152590916584147860ull},
    {"Q10/RRAM/c1", 2324144536710933564ull},
    {"Q10/RRAM/c4", 15062521231402375903ull},
    {"Q11/RRAM/c1", 13628297590337663659ull},
    {"Q11/RRAM/c4", 3889659718565147328ull},
    {"Q12/RRAM/c1", 6406650684239906023ull},
    {"Q12/RRAM/c4", 666173189878682139ull},
    {"Q13/RRAM/c1", 792511226614838485ull},
    {"Q13/RRAM/c4", 18238658922778740560ull},
    {"Q14/RRAM/c1", 11744337502735689699ull},
    {"Q14/RRAM/c4", 3648172483158493315ull},
    {"Q15/RRAM/c1", 3957390611609515331ull},
    {"Q15/RRAM/c4", 13602819871370105987ull},
    {"Q14/RRAM/c1/g0", 11744337502735689699ull},
    {"Q14/RRAM/c1/g16", 11744337502735689699ull},
    {"Q14/RRAM/c1/g128", 11744337502735689699ull},
    {"Q14/RRAM/c4/g0", 3648172483158493315ull},
    {"Q14/RRAM/c4/g16", 3648172483158493315ull},
    {"Q14/RRAM/c4/g128", 3648172483158493315ull},
    {"Q15/RRAM/c1/g0", 3957390611609515331ull},
    {"Q15/RRAM/c1/g16", 3957390611609515331ull},
    {"Q15/RRAM/c1/g128", 3957390611609515331ull},
    {"Q15/RRAM/c4/g0", 13602819871370105987ull},
    {"Q15/RRAM/c4/g16", 13602819871370105987ull},
    {"Q15/RRAM/c4/g128", 13602819871370105987ull},
    {"Q1/GS-DRAM/c1", 10003118322559353605ull},
    {"Q1/GS-DRAM/c4", 3469586252935273611ull},
    {"Q2/GS-DRAM/c1", 1078777666412427063ull},
    {"Q2/GS-DRAM/c4", 12928472898100942919ull},
    {"Q3/GS-DRAM/c1", 18036611815226804611ull},
    {"Q3/GS-DRAM/c4", 18048023983131417219ull},
    {"Q4/GS-DRAM/c1", 6737367781228798586ull},
    {"Q4/GS-DRAM/c4", 11741080804196816230ull},
    {"Q5/GS-DRAM/c1", 1965571548750914466ull},
    {"Q5/GS-DRAM/c4", 3636256449311722911ull},
    {"Q6/GS-DRAM/c1", 13215367809970375098ull},
    {"Q6/GS-DRAM/c4", 1840082432444384294ull},
    {"Q7/GS-DRAM/c1", 564531427969406399ull},
    {"Q7/GS-DRAM/c4", 4252053621109329146ull},
    {"Q8/GS-DRAM/c1", 5281295849245980715ull},
    {"Q8/GS-DRAM/c4", 4899061430719844368ull},
    {"Q9/GS-DRAM/c1", 6314022761129426692ull},
    {"Q9/GS-DRAM/c4", 222845522986817459ull},
    {"Q10/GS-DRAM/c1", 7432792530553808ull},
    {"Q10/GS-DRAM/c4", 11804902495585658059ull},
    {"Q11/GS-DRAM/c1", 7600261304473048543ull},
    {"Q11/GS-DRAM/c4", 10105266184972293740ull},
    {"Q12/GS-DRAM/c1", 1482845668279312535ull},
    {"Q12/GS-DRAM/c4", 2842990657491329187ull},
    {"Q13/GS-DRAM/c1", 15500766275047720589ull},
    {"Q13/GS-DRAM/c4", 1715000486153358768ull},
    {"Q14/GS-DRAM/c1", 14931616222208710115ull},
    {"Q14/GS-DRAM/c4", 9071976559724779139ull},
    {"Q15/GS-DRAM/c1", 6615444565386890563ull},
    {"Q15/GS-DRAM/c4", 16853082419707274115ull},
    {"Q14/GS-DRAM/c1/g0", 14931616222208710115ull},
    {"Q14/GS-DRAM/c1/g16", 14931616222208710115ull},
    {"Q14/GS-DRAM/c1/g128", 14931616222208710115ull},
    {"Q14/GS-DRAM/c4/g0", 9071976559724779139ull},
    {"Q14/GS-DRAM/c4/g16", 9071976559724779139ull},
    {"Q14/GS-DRAM/c4/g128", 9071976559724779139ull},
    {"Q15/GS-DRAM/c1/g0", 6615444565386890563ull},
    {"Q15/GS-DRAM/c1/g16", 6615444565386890563ull},
    {"Q15/GS-DRAM/c1/g128", 6615444565386890563ull},
    {"Q15/GS-DRAM/c4/g0", 16853082419707274115ull},
    {"Q15/GS-DRAM/c4/g16", 16853082419707274115ull},
    {"Q15/GS-DRAM/c4/g128", 16853082419707274115ull},
    {"Q1/DRAM/c1", 11317936898820112109ull},
    {"Q1/DRAM/c4", 5900527716668507347ull},
    {"Q2/DRAM/c1", 1078777666412427063ull},
    {"Q2/DRAM/c4", 12928472898100942919ull},
    {"Q3/DRAM/c1", 18036611815226804611ull},
    {"Q3/DRAM/c4", 18048023983131417219ull},
    {"Q4/DRAM/c1", 2158069240801369698ull},
    {"Q4/DRAM/c4", 7345246402102688298ull},
    {"Q5/DRAM/c1", 1965571548750914466ull},
    {"Q5/DRAM/c4", 3636256449311722911ull},
    {"Q6/DRAM/c1", 14887693197749573666ull},
    {"Q6/DRAM/c4", 14705401926979514090ull},
    {"Q7/DRAM/c1", 564531427969406399ull},
    {"Q7/DRAM/c4", 4252053621109329146ull},
    {"Q8/DRAM/c1", 13108599061186895651ull},
    {"Q8/DRAM/c4", 3433219751637812348ull},
    {"Q9/DRAM/c1", 10850287614966436904ull},
    {"Q9/DRAM/c4", 3750600835632224623ull},
    {"Q10/DRAM/c1", 4219073722677238688ull},
    {"Q10/DRAM/c4", 469903636018446587ull},
    {"Q11/DRAM/c1", 2930751261327236367ull},
    {"Q11/DRAM/c4", 3108069544616712852ull},
    {"Q12/DRAM/c1", 1482845668279312535ull},
    {"Q12/DRAM/c4", 2842990657491329187ull},
    {"Q13/DRAM/c1", 15500766275047720589ull},
    {"Q13/DRAM/c4", 1715000486153358768ull},
    {"Q14/DRAM/c1", 14931616222208710115ull},
    {"Q14/DRAM/c4", 9071976559724779139ull},
    {"Q15/DRAM/c1", 6615444565386890563ull},
    {"Q15/DRAM/c4", 16853082419707274115ull},
    {"Q14/DRAM/c1/g0", 14931616222208710115ull},
    {"Q14/DRAM/c1/g16", 14931616222208710115ull},
    {"Q14/DRAM/c1/g128", 14931616222208710115ull},
    {"Q14/DRAM/c4/g0", 9071976559724779139ull},
    {"Q14/DRAM/c4/g16", 9071976559724779139ull},
    {"Q14/DRAM/c4/g128", 9071976559724779139ull},
    {"Q15/DRAM/c1/g0", 6615444565386890563ull},
    {"Q15/DRAM/c1/g16", 6615444565386890563ull},
    {"Q15/DRAM/c1/g128", 6615444565386890563ull},
    {"Q15/DRAM/c4/g0", 16853082419707274115ull},
    {"Q15/DRAM/c4/g16", 16853082419707274115ull},
    {"Q15/DRAM/c4/g128", 16853082419707274115ull},
};

TEST(OpStreamGolden, EveryCompiledStream)
{
    const TableSet tables = TableSet::standard(8192, 2048, 7);
    const QueryWorkload wl(tables);
    std::size_t checked = 0;
    for (const mem::DeviceKind kind : kDevices) {
        const mem::AddressMap map(mem::geometryFor(kind));
        const PlacedDatabase pd = wl.place(kind, map);
        const auto check = [&](QueryId id, unsigned cores,
                               unsigned group) {
            const std::string name = caseName(id, kind, cores, group);
            const std::uint64_t got =
                hashQuery(wl.compile(id, pd, cores, group));
            const auto it = kGolden.find(name);
            if (it == kGolden.end()) {
                ADD_FAILURE() << "no golden for {\"" << name << "\", "
                              << got << "ull},";
                return;
            }
            EXPECT_EQ(got, it->second) << name;
            EXPECT_EQ(hashStreams(wl.stream(id, pd, cores, group)),
                      it->second)
                << name << " streamed";
            ++checked;
        };
        for (const QuerySpec &spec : allQueries()) {
            for (const unsigned cores : {1u, 4u})
                check(spec.id, cores, QueryWorkload::kDefaultGroup);
        }
        for (const QueryId id : {QueryId::Q14, QueryId::Q15}) {
            for (const unsigned cores : {1u, 4u}) {
                for (const unsigned group : {0u, 16u, 128u})
                    check(id, cores, group);
            }
        }
    }
    EXPECT_EQ(checked, kGolden.size());
}

} // namespace
} // namespace rcnvm::workload
