/**
 * @file
 * Executable image format.
 *
 * An Image is the output of the compiler: machine code plus an
 * initialized data segment. For protean binaries the data segment
 * additionally carries the metadata the paper describes (Section
 * III-A2): a discovery header, the Edge Virtualization Table (EVT),
 * and the compressed serialized IR.
 *
 * Data-segment layout (byte addresses within the process):
 *
 *   0x00  header: magic, evtBase, evtCount, irBase, irSizeBytes,
 *         dataSizeBytes (6 x 8 bytes)
 *   evtBase            EVT: one 8-byte code address per slot
 *   irBase             compressed IR blob (byte-packed)
 *   globals            each global, 64-byte aligned
 *
 * Non-protean images keep the header with evtCount == 0 and no IR.
 */

#ifndef PROTEAN_ISA_IMAGE_H
#define PROTEAN_ISA_IMAGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/instruction.h"
#include "isa/minst.h"

namespace protean {
namespace isa {

/** Magic value in the discovery header. */
constexpr uint64_t kImageMagic = 0x50524f5445414e31ULL; // "PROTEAN1"

/** Byte offsets of the discovery-header fields. */
enum HeaderField : uint64_t {
    kHdrMagic = 0,
    kHdrEvtBase = 8,
    kHdrEvtCount = 16,
    kHdrIrBase = 24,
    kHdrIrSize = 32,
    kHdrDataSize = 40,
    kHdrBytes = 48,
};

/** Compiled-function descriptor. */
struct FunctionInfo
{
    std::string name;
    ir::FuncId irFunc = ir::kInvalidId;
    CodeAddr entry = kInvalidCodeAddr;
    CodeAddr end = kInvalidCodeAddr; ///< one past the last instruction
};

/** Placement of globals inside the data segment. */
struct DataLayout
{
    /** Byte base address of each global, indexed by GlobalId. */
    std::vector<uint64_t> globalBase;
    /** Total data-segment size in bytes. */
    uint64_t sizeBytes = kHdrBytes;

    uint64_t base(ir::GlobalId g) const;
};

/** An executable image. */
struct Image
{
    std::string name;
    /** Flat code array; CodeAddr indexes into it. */
    std::vector<MInst> code;
    /** One entry per compiled function, in ir::FuncId order. */
    std::vector<FunctionInfo> functions;
    /** Global placement. */
    DataLayout layout;
    /** Initial data-segment contents (bytes). */
    std::vector<uint8_t> initialData;
    /** Entry function (index into functions). */
    ir::FuncId entryFunc = ir::kInvalidId;

    // Protean metadata (zero / empty for plain binaries).
    uint64_t evtBase = 0;
    uint32_t evtCount = 0;
    /** EVT slot -> function it virtualizes. */
    std::vector<ir::FuncId> evtSlotFunc;
    uint64_t irBase = 0;
    uint64_t irSizeBytes = 0;

    /** True when the image carries protean metadata. */
    bool isProtean() const { return evtCount > 0; }

    /** Byte address of an EVT slot's code-address word. */
    uint64_t evtSlotAddr(uint32_t slot) const { return evtBase + 8ULL * slot; }

    /** True when the 8-byte word at byte_addr lies in initialData. */
    bool hasInitialWord(uint64_t byte_addr) const
    {
        return initialData.size() >= 8 &&
            byte_addr <= initialData.size() - 8;
    }

    /** Entry code address of the program. */
    CodeAddr entryPoint() const;

    /** Function containing a code address, or nullptr (e.g. for
     *  runtime-added variants not in the static table). */
    const FunctionInfo *functionAt(CodeAddr addr) const;

    /** Function by IR id. */
    const FunctionInfo &function(ir::FuncId id) const;

    /** Read a 64-bit little-endian word from initialData. */
    uint64_t initialWord(uint64_t byte_addr) const;

    /** Write a 64-bit little-endian word into initialData. */
    void setInitialWord(uint64_t byte_addr, uint64_t value);

    /** Full disassembly (tests / debugging). */
    std::string disassembleAll() const;
};

} // namespace isa
} // namespace protean

#endif // PROTEAN_ISA_IMAGE_H
