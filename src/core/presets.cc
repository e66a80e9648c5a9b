#include "core/presets.hh"

namespace rcnvm::core {

cpu::MachineConfig
table1Machine(mem::DeviceKind kind)
{
    cpu::MachineConfig config;
    config.device = kind;
    config.hierarchy = cache::HierarchyConfig{};
    config.window = 4;
    return config;
}

cpu::MachineConfig
table1MachineWithCell(mem::DeviceKind kind, double read_ns,
                      double write_ns)
{
    cpu::MachineConfig config = table1Machine(kind);
    config.timing =
        mem::timingFor(kind).withCellLatency(read_ns, write_ns);
    return config;
}

cpu::MachineConfig
hybridTable1Machine(mem::MigrationPolicyKind policy)
{
    cpu::MachineConfig config =
        table1Machine(mem::DeviceKind::RcNvm);
    config.tier.enabled = true;
    config.tier.policy = policy;
    return config;
}

cpu::MachineConfig
serve16Machine(mem::DeviceKind kind)
{
    cpu::MachineConfig config = table1Machine(kind);
    config.hierarchy.cores = 16;
    config.hierarchy.l3 =
        cache::CacheConfig{"L3", 16 * 1024 * 1024, 64, 8};
    // 16 cores x 4-deep core windows can demand 64 outstanding
    // misses; an undersized MSHR file would put every core into a
    // refuse/retry storm instead of queueing at the controllers.
    config.hierarchy.mshrs = 64;
    config.hierarchy.wbBufferDepth = 64;
    // 16 cores' misses can legitimately land ~64 outstanding
    // requests on one channel; deep queues also keep the serving
    // benches clear of controller backpressure.
    config.memQueueCapacity = 128;
    mem::Geometry geo = mem::geometryFor(kind);
    geo.channels = 8; // the device's Table-1 geometry, widened
    config.geometry = geo;
    return config;
}

} // namespace rcnvm::core
