#include "trace/trace_binary.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "trace/trace_reader.hh"
#include "util/logging.hh"

namespace rcnvm::trace {

using cpu::MemOp;
using cpu::OpKind;

TraceRecord
toRecord(unsigned core, const MemOp &op)
{
    if (core > std::numeric_limits<std::uint8_t>::max())
        rcnvm_fatal("binary trace records address at most 256 "
                    "cores; got core ",
                    core);

    TraceRecord rec;
    rec.core = static_cast<std::uint8_t>(core);
    rec.size = op.bytes;
    rec.addr = op.addr;

    const auto set = [&rec](RecordType t) {
        rec.type = static_cast<std::uint8_t>(t);
    };
    switch (op.kind) {
      case OpKind::Load:
        set(RecordType::Read);
        break;
      case OpKind::Store:
        set(RecordType::Write);
        break;
      case OpKind::CLoad:
        set(RecordType::ColRead);
        break;
      case OpKind::CStore:
        set(RecordType::ColWrite);
        break;
      case OpKind::CPrefetch:
        set(RecordType::ColPrefetch);
        break;
      case OpKind::GLoad:
        set(RecordType::GatherRead);
        break;
      case OpKind::Compute:
        set(RecordType::Compute);
        rec.size = op.computeCycles;
        rec.addr = 0;
        break;
      case OpKind::Pin:
        set(RecordType::Pin);
        break;
      case OpKind::Unpin:
        set(RecordType::Unpin);
        break;
      case OpKind::Fence:
        set(RecordType::Fence);
        rec.size = 0;
        rec.addr = 0;
        break;
    }
    if (op.kind == OpKind::CPrefetch || op.kind == OpKind::Pin ||
        op.kind == OpKind::Unpin) {
        if (op.pinOrient == Orientation::Column)
            rec.flags |= kRecordFlagColumn;
    }
    return rec;
}

cpu::MemOp
toMemOp(const TraceRecord &rec, std::uint64_t index)
{
    const Orientation orient = (rec.flags & kRecordFlagColumn) != 0
                                   ? Orientation::Column
                                   : Orientation::Row;
    switch (static_cast<RecordType>(rec.type)) {
      case RecordType::Read:
        return MemOp::load(rec.addr, rec.size);
      case RecordType::Write:
        return MemOp::store(rec.addr, rec.size);
      case RecordType::ColRead:
        return MemOp::cload(rec.addr, rec.size);
      case RecordType::ColWrite:
        return MemOp::cstore(rec.addr, rec.size);
      case RecordType::ColPrefetch:
        return MemOp::cprefetch(rec.addr, orient);
      case RecordType::GatherRead:
        return MemOp::gload(rec.addr);
      case RecordType::Compute:
        return MemOp::compute(rec.size);
      case RecordType::Pin:
        return MemOp::pin(rec.addr, rec.size, orient);
      case RecordType::Unpin:
        return MemOp::unpin(rec.addr, rec.size, orient);
      case RecordType::Fence:
        return MemOp::fence();
      case RecordType::Invalid:
        break;
    }
    rcnvm_fatal("binary trace record ", index,
                ": unknown record type ",
                static_cast<unsigned>(rec.type));
}

BinaryTraceWriter::BinaryTraceWriter(const std::string &path,
                                     unsigned core_count)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc),
      counts_(core_count, 0)
{
    if (!out_)
        rcnvm_fatal("cannot open ", path_, " for writing");

    // Placeholder header block; finalize() patches the counts.
    TraceFileHeader header;
    std::memcpy(header.magic, kTraceMagic, sizeof(header.magic));
    header.version = kTraceVersion;
    header.coreCount = core_count;
    out_.write(reinterpret_cast<const char *>(&header),
               sizeof(header));
    const std::uint64_t pad =
        tracePayloadOffset(core_count) - sizeof(header) -
        8ull * core_count;
    const std::vector<char> zeros(8ull * core_count + pad, 0);
    out_.write(zeros.data(),
               static_cast<std::streamsize>(zeros.size()));
}

BinaryTraceWriter::~BinaryTraceWriter()
{
    if (!finalized_)
        finalize();
}

void
BinaryTraceWriter::append(unsigned core, const MemOp &op)
{
    append(toRecord(core, op));
}

void
BinaryTraceWriter::append(const TraceRecord &rec)
{
    if (rec.core >= counts_.size())
        rcnvm_fatal("binary trace declares ", counts_.size(),
                    " core(s) but a record names core ",
                    static_cast<unsigned>(rec.core));
    out_.write(reinterpret_cast<const char *>(&rec), sizeof(rec));
    ++counts_[rec.core];
    ++total_;
}

void
BinaryTraceWriter::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    TraceFileHeader header;
    std::memcpy(header.magic, kTraceMagic, sizeof(header.magic));
    header.version = kTraceVersion;
    header.coreCount = static_cast<std::uint32_t>(counts_.size());
    header.recordCount = total_;
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(&header),
               sizeof(header));
    out_.write(reinterpret_cast<const char *>(counts_.data()),
               static_cast<std::streamsize>(8 * counts_.size()));
    out_.flush();
    if (!out_)
        rcnvm_fatal("write failed for binary trace ", path_);
    out_.close();
}

void
writeBinaryTrace(const std::string &path,
                 const std::vector<cpu::AccessPlan> &plans)
{
    BinaryTraceWriter writer(
        path, static_cast<unsigned>(plans.size()));
    std::size_t longest = 0;
    for (const cpu::AccessPlan &plan : plans)
        longest = std::max(longest, plan.size());
    for (std::size_t i = 0; i < longest; ++i) {
        for (std::size_t core = 0; core < plans.size(); ++core) {
            if (i < plans[core].size())
                writer.append(static_cast<unsigned>(core),
                              plans[core][i]);
        }
    }
    writer.finalize();
}

std::vector<cpu::AccessPlan>
readBinaryTrace(const std::string &path)
{
    MmapTraceReader reader(path);
    std::vector<cpu::AccessPlan> plans(reader.header().coreCount);
    TraceRecord rec;
    std::uint64_t index = 0;
    while (reader.next(rec)) {
        plans[rec.core].push_back(toMemOp(rec, index));
        ++index;
    }
    return plans;
}

} // namespace rcnvm::trace
