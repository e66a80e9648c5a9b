/**
 * @file
 * Tenant and priority-class primitives of the serving layer: the
 * three traffic classes, per-tenant admission token buckets, and the
 * tenant configuration block (DESIGN.md 4i).
 */

#ifndef RCNVM_OLXP_SERVE_TENANT_HH_
#define RCNVM_OLXP_SERVE_TENANT_HH_

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/types.hh"

namespace rcnvm::olxp::serve {

/** Priority class of a tenant's traffic. */
enum class TenantClass : std::uint8_t {
    OltpLatency,    //!< open-loop point traffic, p99-protected
    OlapThroughput, //!< closed-loop scan streams, backfill
    Background,     //!< closed-loop maintenance scans, backfill
};

/** Stable class name ("oltp" / "olap" / "background"). */
const char *toString(TenantClass cls);

/**
 * Deterministic token bucket: @p rate tokens accrue per tick up to
 * @p burst. Refill is computed from the event-queue clock, so runs
 * are reproducible.
 */
class TokenBucket
{
  public:
    /** A full bucket of @p burst tokens refilling at @p rate
     *  tokens/tick. rate <= 0 disables metering (always admits). */
    TokenBucket(double rate, double burst)
        : rate_(rate), burst_(burst), tokens_(burst)
    {
    }

    /** Take @p cost tokens at @p now; false when short (no debt). */
    bool
    tryTake(Tick now, double cost = 1.0)
    {
        if (rate_ <= 0.0)
            return true;
        refill(now);
        if (tokens_ < cost)
            return false;
        tokens_ -= cost;
        return true;
    }

    /** Tokens available at @p now (after refill). */
    double
    level(Tick now)
    {
        refill(now);
        return tokens_;
    }

  private:
    void
    refill(Tick now)
    {
        if (now > last_) {
            const double dt =
                static_cast<double>((now - last_).value());
            tokens_ = std::min(burst_, tokens_ + rate_ * dt);
            last_ = now;
        }
    }

    double rate_;
    double burst_;
    double tokens_;
    Tick last_{0};
};

/** Configuration of one serving tenant. */
struct TenantConfig {
    /** Stable name: the tenant's statistics register under
     *  `serve.<name>.*`. */
    std::string name = "tenant";
    TenantClass cls = TenantClass::OlapThroughput;

    /** Closed-loop streams attached to the tenant's shared scan
     *  cursor (backfill classes; ignored for OltpLatency). */
    unsigned streams = 0;

    /** Mean open-loop inter-arrival gap in ticks (OltpLatency
     *  only). */
    Tick oltpInterArrival{100000};
    /** Fraction of OLTP requests that also write one field. */
    double oltpUpdateFraction = 0.2;
    /** Leading fraction of the table forming the OLTP hot set
     *  (used only when oltpHotProbability > 0). */
    double oltpHotTupleFraction = 0.125;
    /** Probability an OLTP lookup targets the hot set; 0 (the
     *  default) keeps the historical uniform tuple draw. */
    double oltpHotProbability = 0.0;

    /** Tuples one shared-scan segment covers (backfill classes);
     *  also the per-stream scan length credited by the cursor. */
    std::uint64_t segmentTuples = 4096;
    /** Shared-scan segments the tenant keeps in flight at once. */
    unsigned segmentParallelism = 2;

    /** Admission token-bucket rate in requests (segments) per
     *  million ticks; <= 0 disables metering for the tenant. */
    double tokensPerMTick = 0.0;
    /** Token-bucket burst capacity in requests. */
    double tokenBurst = 8.0;
};

} // namespace rcnvm::olxp::serve

#endif // RCNVM_OLXP_SERVE_TENANT_HH_
