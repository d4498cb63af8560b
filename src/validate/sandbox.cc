#include "validate/sandbox.h"

#include <algorithm>
#include <map>

#include "isa/semantics.h"
#include "support/logging.h"

namespace protean {
namespace validate {

using isa::MInst;
using isa::MOp;

namespace {

/** Fold a word into an FNV-1a digest, low byte first. */
void
fnvFold(uint64_t &digest, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (v >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ULL;
    }
}

} // namespace

const char *
trapName(Trap t)
{
    switch (t) {
      case Trap::None: return "none";
      case Trap::WildPc: return "wild-pc";
      case Trap::UnpatchedCall: return "unpatched-call";
      case Trap::WildEvtSlot: return "wild-evt-slot";
      case Trap::Unaligned: return "unaligned";
      case Trap::StepBudget: return "step-budget";
      case Trap::CallDepth: return "call-depth";
    }
    return "?";
}

std::string
SandboxResult::fingerprint() const
{
    // Registers folded into one FNV digest so the fingerprint stays
    // short enough to embed in verdict reasons and test failures.
    uint64_t rh = 0xcbf29ce484222325ULL;
    for (uint64_t v : regs)
        fnvFold(rh, v);
    return strformat(
        "trap=%s steps=%llu loads=%llu stores=%llu branches=%llu "
        "writes=%llu/%016llx regs=%016llx",
        trapName(trap), static_cast<unsigned long long>(steps),
        static_cast<unsigned long long>(loads),
        static_cast<unsigned long long>(stores),
        static_cast<unsigned long long>(branches),
        static_cast<unsigned long long>(writeCount),
        static_cast<unsigned long long>(writeDigest),
        static_cast<unsigned long long>(rh));
}

namespace {

/** The sandbox's port onto isa::execute: overlay memory, and a typed
 *  trap for every refusal. */
struct TrapPort
{
    const isa::Image &image;
    SandboxResult &res;
    const OsrFlip *flip;
    uint64_t flipTaken = 0; ///< Taken transfers of the flipped branch.
    std::map<uint64_t, uint64_t> mem{}; ///< Write overlay.
    bool halted = false;

    bool
    trap(Trap t)
    {
        res.trap = t;
        return false;
    }

    uint64_t
    readWord(uint64_t addr) const
    {
        auto it = mem.find(addr);
        if (it != mem.end())
            return it->second;
        return image.hasInitialWord(addr) ? image.initialWord(addr) : 0;
    }

    bool
    load(uint64_t addr, bool, uint64_t &value)
    {
        if (addr & 7)
            return trap(Trap::Unaligned);
        ++res.loads;
        value = readWord(addr);
        return true;
    }

    bool
    store(uint64_t addr, bool, uint64_t value)
    {
        if (addr & 7)
            return trap(Trap::Unaligned);
        ++res.stores;
        mem[addr] = value;
        // Order-sensitive digest: a dropped, reordered or re-valued
        // store changes it even when the final memory image agrees.
        fnvFold(res.writeDigest, addr);
        fnvFold(res.writeDigest, value);
        ++res.writeCount;
        return true;
    }

    bool
    evtTarget(uint32_t slot, isa::CodeAddr &target)
    {
        if (slot >= image.evtCount) {
            ++res.branches; // the trapping call still counts
            return trap(Trap::WildEvtSlot);
        }
        target = static_cast<isa::CodeAddr>(
            readWord(image.evtSlotAddr(slot)));
        return true;
    }

    bool unpatchedCall() { return trap(Trap::UnpatchedCall); }

    bool
    enterCall(size_t depth)
    {
        return depth < Sandbox::kMaxCallDepth || trap(Trap::CallDepth);
    }

    void hint() { ++res.hints; }
    void branch() { ++res.branches; }

    isa::CodeAddr
    transfer(isa::CodeAddr from, isa::CodeAddr to, isa::Transfer how)
    {
        // The patched back-edge lands on dest from its
        // afterExecutions-th taken transfer on.
        if (flip && how == isa::Transfer::Branch && from == flip->pc &&
            flipTaken++ >= flip->afterExecutions)
            return flip->dest;
        return to;
    }

    void halt() { halted = true; }
};

} // namespace

SandboxResult
Sandbox::run(const std::vector<MInst> &code, isa::CodeAddr entry,
             const std::array<uint64_t, 4> &args,
             uint64_t step_budget, const OsrFlip *flip) const
{
    SandboxResult res;
    TrapPort port{image_, res, flip};
    isa::ArchState s;
    s.pc = entry;
    std::copy(args.begin(), args.end(), s.regs.begin());

    while (!port.halted) {
        if (s.pc >= code.size()) {
            res.trap = Trap::WildPc;
            break;
        }
        const MInst &inst = code[s.pc];
        if (inst.op != MOp::Hint) {
            if (res.steps >= step_budget) {
                res.trap = Trap::StepBudget;
                break;
            }
            ++res.steps;
        }
        if (!isa::execute(port, s, inst))
            break; // trapped, with s.pc on the faulting instruction
    }
    if (res.trap != Trap::None)
        res.trapPc = s.pc;
    res.regs = s.regs;
    return res;
}

} // namespace validate
} // namespace protean
