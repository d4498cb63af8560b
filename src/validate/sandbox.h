/**
 * @file
 * Sandboxed PISA execution for differential validation.
 *
 * The tier-2 validator executes *candidate* variant code, which a
 * miscompiling backend may have made jump past the code array, call
 * through an unpatched slot, or compute an unaligned address.
 * sim::Core panics on those (right for vetted images, fatal for a
 * validator). The sandbox runs the same semantics, isa::execute
 * (isa/semantics.h), through a *trapping port* that turns each
 * would-be panic into a typed trap. The port is purely functional (no
 * caches, no cycles) and records what differential validation
 * compares: final registers, an ordered write digest, the HPM-style
 * event counts, and the trap. Hints run outside the step budget, so
 * an NT variant and its original are cut at the same logical point.
 */

#ifndef PROTEAN_VALIDATE_SANDBOX_H
#define PROTEAN_VALIDATE_SANDBOX_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/image.h"
#include "isa/minst.h"

namespace protean {
namespace validate {

/** Why a sandboxed run stopped before halting (None = clean halt). */
enum class Trap : uint8_t {
    None,          ///< ran to completion (Halt or top-level Ret)
    WildPc,        ///< fetched outside the code array
    UnpatchedCall, ///< CallDirect with an invalid target
    WildEvtSlot,   ///< CallIndirect through a slot past the EVT
    Unaligned,     ///< memory access not 8-byte aligned
    StepBudget,    ///< exceeded the per-run instruction budget
    CallDepth,     ///< call stack deeper than the sandbox allows
};

const char *trapName(Trap t);

/**
 * Functional model of an on-stack-replacement redirect for
 * differential validation (DESIGN.md §14): from its
 * `afterExecutions`-th *taken* transfer onward, the branch at `pc`
 * targets `dest` instead of its encoded target — exactly the visible
 * effect of runtime::RuntimeCompiler::osrRedirect patching a loop
 * back-edge while the loop is running. The sandbox applies no other
 * compensation, because the restricted NT-mask transform needs none:
 * a flipped run must fingerprint-match an uninterrupted one.
 */
struct OsrFlip
{
    isa::CodeAddr pc = isa::kInvalidCodeAddr;
    isa::CodeAddr dest = isa::kInvalidCodeAddr;
    /** Taken transfers of the branch before the redirect lands. */
    uint64_t afterExecutions = 0;
};

/** Architectural summary of one sandboxed run. */
struct SandboxResult
{
    Trap trap = Trap::None;
    /** Code address of the faulting fetch/instruction (trap only). */
    isa::CodeAddr trapPc = isa::kInvalidCodeAddr;
    /** Non-hint instructions executed (the budgeted count). */
    uint64_t steps = 0;
    uint64_t hints = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    /** Ordered memory-write log: FNV-1a over (addr, value) pairs. */
    uint64_t writeDigest = 0xcbf29ce484222325ULL;
    uint64_t writeCount = 0;
    /** Final register file. */
    std::array<uint64_t, isa::kNumMachineRegs> regs{};

    /**
     * Architectural fingerprint two equivalent runs must share. The
     * trap pc is deliberately excluded: equivalent code placed at
     * different base addresses traps at different pcs.
     */
    std::string fingerprint() const;

    /** True when two runs are architecturally indistinguishable. */
    bool equivalentTo(const SandboxResult &other) const
    {
        return fingerprint() == other.fingerprint();
    }
};

/**
 * One sandboxed machine. Memory is an overlay over the image's
 * initial data segment (reads fall through to initialData, then to
 * zero-fill, mirroring PagedMemory); each run() starts from a fresh
 * overlay and register file, so runs are independent and repeats are
 * bit-identical.
 */
class Sandbox
{
  public:
    /** Maximum call-stack depth before a CallDepth trap. */
    static constexpr size_t kMaxCallDepth = 512;

    explicit Sandbox(const isa::Image &image) : image_(image) {}

    /**
     * Run `code` from `entry` with r0..r3 = args until Halt,
     * top-level Ret, a trap, or `step_budget` non-hint instructions.
     * `code` is typically image.code with candidate variant code
     * appended; the EVT is read from the (overlaid) data segment, so
     * indirect calls dispatch exactly as on the real machine.
     *
     * `flip`, when non-null, models one OSR back-edge redirect
     * landing mid-run (see OsrFlip).
     */
    SandboxResult run(const std::vector<isa::MInst> &code,
                      isa::CodeAddr entry,
                      const std::array<uint64_t, 4> &args,
                      uint64_t step_budget,
                      const OsrFlip *flip = nullptr) const;

  private:
    const isa::Image &image_;
};

} // namespace validate
} // namespace protean

#endif // PROTEAN_VALIDATE_SANDBOX_H
