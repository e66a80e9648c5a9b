/**
 * @file
 * Compact fixed-width binary access-trace format (drcachesim-style).
 *
 * The text format of trace_io is convenient to author and diff, but
 * parsing it dominates replay time and a multi-GB capture of a real
 * binary will not fit in memory as an AccessPlan. This module
 * defines the binary counterpart: a versioned header followed by a
 * flat array of 16-byte records, one per operation, carrying the
 * fields DynamoRIO's drcachesim records carry (type / size / addr)
 * plus the two RC-NVM-specific ones (originating core and
 * orientation). The layout is designed for the mmap'd streaming
 * reader (trace_reader.hh): every record starts at a 16-byte-aligned
 * offset, so a page-aligned window never splits a record.
 *
 * File layout (all fields little-endian, native struct layout):
 *
 *   TraceFileHeader             32 bytes (magic, version, counts)
 *   uint64_t x coreCount        per-core record counts
 *   zero padding                to the next 16-byte boundary
 *   TraceRecord x recordCount   16 bytes each
 *
 * The per-core count table lets a demultiplexer know a core's
 * stream is exhausted without scanning the rest of the file, which
 * is what keeps per-core queues bounded for sparse cores.
 */

#ifndef RCNVM_TRACE_TRACE_BINARY_HH_
#define RCNVM_TRACE_TRACE_BINARY_HH_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "cpu/mem_op.hh"

namespace rcnvm::trace {

// The format is defined as the bytes these structs hold on a
// little-endian machine; a big-endian port would need explicit
// byte swapping, so refuse to compile there rather than silently
// write an incompatible file.
static_assert(std::endian::native == std::endian::little,
              "binary trace format assumes little-endian layout");

/** Record type enumeration (drcachesim-style: one tag per access
 *  kind, orthogonal to the per-record payload fields). */
enum class RecordType : std::uint8_t {
    Invalid = 0,
    Read = 1,       //!< row-oriented load (drcachesim TRACE_TYPE_READ)
    Write = 2,      //!< row-oriented store (TRACE_TYPE_WRITE)
    ColRead = 3,    //!< column-oriented load (cload)
    ColWrite = 4,   //!< column-oriented store (cstore)
    ColPrefetch = 5, //!< group-caching prefetch into the LLC
    GatherRead = 6, //!< GS-DRAM gathered load
    Compute = 7,    //!< compute delay; size holds the cycle count
    Pin = 8,        //!< pin [addr, addr+size) in the LLC
    Unpin = 9,      //!< release a pinned range
    Fence = 10,     //!< drain outstanding accesses
};

/** flags bit 0: the pin/prefetch range is column-oriented. */
inline constexpr std::uint16_t kRecordFlagColumn = 1;

/** One fixed-width trace record. 16 bytes, no implicit padding. */
struct TraceRecord {
    std::uint8_t type = 0;   //!< RecordType
    std::uint8_t core = 0;   //!< originating core (0-255)
    std::uint16_t flags = 0; //!< kRecordFlag* bits
    std::uint32_t size = 0;  //!< access bytes, or Compute cycles
    std::uint64_t addr = 0;  //!< access address (Compute/Fence: 0)
};
static_assert(sizeof(TraceRecord) == 16,
              "record layout must stay fixed-width");

/** File magic: "RCNVMTRC". */
inline constexpr char kTraceMagic[8] = {'R', 'C', 'N', 'V',
                                        'M', 'T', 'R', 'C'};

/** Current format version; readers reject anything else. */
inline constexpr std::uint32_t kTraceVersion = 1;

/** The fixed 32-byte file header (followed by the per-core record
 *  count table, padded to 16 bytes). */
struct TraceFileHeader {
    char magic[8] = {};
    std::uint32_t version = 0;
    std::uint32_t coreCount = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t reserved = 0; //!< zero; room for future metadata
};
static_assert(sizeof(TraceFileHeader) == 32,
              "header layout must stay fixed-width");

/** Byte offset of the record payload for a @p core_count file:
 *  header + count table, rounded up so records stay 16-aligned. */
constexpr std::uint64_t
tracePayloadOffset(std::uint32_t core_count)
{
    const std::uint64_t raw =
        sizeof(TraceFileHeader) + 8ull * core_count;
    return (raw + 15) & ~std::uint64_t{15};
}

/** Encode one plan operation as a binary record. Fatal when the
 *  operation cannot be represented (core out of the 8-bit range). */
TraceRecord toRecord(unsigned core, const cpu::MemOp &op);

/** Decode a binary record back into a plan operation. Fatal (with
 *  @p index in the message) on an unknown record type. */
cpu::MemOp toMemOp(const TraceRecord &rec, std::uint64_t index);

/**
 * Streaming binary-trace writer. Declares the core count up front
 * (the per-core count table is part of the header block), appends
 * records in trace order, and patches the record counts into the
 * header on finalize() — also invoked by the destructor, though
 * explicit finalization is preferred since a destructor cannot
 * report I/O failure usefully.
 */
class BinaryTraceWriter
{
  public:
    /** Open @p path for writing a @p core_count -core trace; fatal
     *  when the file cannot be created. */
    BinaryTraceWriter(const std::string &path, unsigned core_count);
    ~BinaryTraceWriter();

    BinaryTraceWriter(const BinaryTraceWriter &) = delete;
    BinaryTraceWriter &operator=(const BinaryTraceWriter &) = delete;

    /** Append @p op as the next record of @p core 's stream. */
    void append(unsigned core, const cpu::MemOp &op);

    /** Append a pre-encoded record. */
    void append(const TraceRecord &rec);

    /** Patch the header counts and flush; fatal on I/O failure. */
    void finalize();

    /** Records appended so far. */
    std::uint64_t recordCount() const { return total_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    bool finalized_ = false;
};

/** Serialise per-core plans to a binary trace file (the in-memory
 *  counterpart of trace_io's writeTrace). Records interleave one per
 *  core in turn, skipping cores whose plan has run out, so a
 *  TraceDemux streams the file with small queues. */
void writeBinaryTrace(const std::string &path,
                      const std::vector<cpu::AccessPlan> &plans);

/** Materialise a binary trace as per-core plans. Convenience for
 *  `rcnvm_trace convert`, perfbench and tests; replay of large
 *  traces streams through MmapTraceReader/TraceDemux instead. */
std::vector<cpu::AccessPlan>
readBinaryTrace(const std::string &path);

} // namespace rcnvm::trace

#endif // RCNVM_TRACE_TRACE_BINARY_HH_
