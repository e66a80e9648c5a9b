#include "util/stat_registry.hh"

#include "util/logging.hh"

namespace rcnvm::util {

StatRegistry::Entry &
StatRegistry::entryFor(const std::string &name, Kind kind)
{
    auto [it, inserted] = entries_.try_emplace(name);
    if (inserted)
        it->second.kind = kind;
    else if (it->second.kind != kind)
        rcnvm_panic("statistic '", name,
                    "' registered with two different types");
    return it->second;
}

const StatRegistry::Entry &
StatRegistry::lookup(const std::string &name) const
{
    auto it = entries_.find(name);
    if (it == entries_.end())
        rcnvm_panic("unknown statistic '", name, "'");
    return it->second;
}

void
StatRegistry::addCounter(const std::string &name, const Counter &c)
{
    entryFor(name, Kind::CounterK).counters.push_back(&c);
}

void
StatRegistry::addCounterFn(const std::string &name, Gauge fn)
{
    entryFor(name, Kind::CounterK).fns.push_back(std::move(fn));
}

void
StatRegistry::addValue(const std::string &name, const double &v)
{
    entryFor(name, Kind::CounterK).values.push_back(&v);
}

void
StatRegistry::addSampled(const std::string &name, const Sampled &s)
{
    entryFor(name, Kind::Sampled).sampleds.push_back(&s);
}

void
StatRegistry::addHistogram(const std::string &name,
                           const Histogram &h)
{
    entryFor(name, Kind::Histogram).hists.push_back(&h);
}

void
StatRegistry::addGauge(const std::string &name, Gauge fn)
{
    Entry &e = entryFor(name, Kind::Gauge);
    if (!e.fns.empty())
        rcnvm_panic("gauge '", name, "' registered twice");
    e.fns.push_back(std::move(fn));
}

void
StatRegistry::addFormula(const std::string &name, Formula f)
{
    Entry &e = entryFor(name, Kind::Formula);
    if (e.formula)
        rcnvm_panic("formula '", name, "' registered twice");
    e.formula = std::move(f);
}

double
StatRegistry::counter(const std::string &name) const
{
    const Entry &e = lookup(name);
    if (e.kind != Kind::CounterK)
        rcnvm_panic("statistic '", name, "' is not a counter");
    double sum = 0;
    for (const Counter *c : e.counters)
        sum += static_cast<double>(c->value());
    for (const double *v : e.values)
        sum += *v;
    for (const Gauge &fn : e.fns)
        sum += fn();
    return sum;
}

Sampled
StatRegistry::sampled(const std::string &name) const
{
    const Entry &e = lookup(name);
    if (e.kind != Kind::Sampled)
        rcnvm_panic("statistic '", name, "' is not sampled");
    Sampled out;
    for (const Sampled *s : e.sampleds)
        out.merge(*s);
    return out;
}

Histogram
StatRegistry::histogram(const std::string &name) const
{
    const Entry &e = lookup(name);
    if (e.kind != Kind::Histogram)
        rcnvm_panic("statistic '", name, "' is not a histogram");
    Histogram out(e.hists.front()->subBucketBits());
    for (const Histogram *h : e.hists)
        out.merge(*h);
    return out;
}

double
StatRegistry::value(const std::string &name) const
{
    const Entry &e = lookup(name);
    switch (e.kind) {
      case Kind::CounterK:
        return counter(name);
      case Kind::Sampled:
        return sampled(name).mean();
      case Kind::Histogram:
        return static_cast<double>(histogram(name).count());
      case Kind::Gauge:
        return e.fns.front()();
      case Kind::Formula:
        return e.formula(*this);
    }
    rcnvm_panic("corrupt statistic entry kind");
}

bool
StatRegistry::contains(const std::string &name) const
{
    return entries_.find(name) != entries_.end();
}

StatsMap
StatRegistry::snapshot() const
{
    StatsMap out;
    for (const auto &[name, e] : entries_) {
        switch (e.kind) {
          case Kind::CounterK:
            out.add(name, counter(name));
            break;
          case Kind::Sampled: {
            const Sampled s = sampled(name);
            out.set(name + ".count",
                    static_cast<double>(s.count()));
            out.set(name + ".mean", s.mean());
            out.set(name + ".min", s.min());
            out.set(name + ".max", s.max());
            break;
          }
          case Kind::Histogram: {
            const Histogram h = histogram(name);
            out.add(name + ".samples",
                    static_cast<double>(h.count()));
            const unsigned used = h.usedBuckets();
            for (unsigned i = 0; i < used; ++i) {
                if (h.bucket(i) != 0)
                    out.add(name + ".b" + std::to_string(i),
                            static_cast<double>(h.bucket(i)));
            }
            break;
          }
          case Kind::Gauge:
            out.set(name, e.fns.front()());
            break;
          case Kind::Formula:
            out.set(name, e.formula(*this));
            break;
        }
    }
    return out;
}

} // namespace rcnvm::util
