/**
 * @file
 * PISA semantics, written once.
 *
 * isa::execute gives one instruction its meaning: the opcode switch,
 * effective addresses, branch conditions, the Div/Mod-by-zero and
 * shift-mask rules, register windows, and `Ret` on an empty stack
 * halting. It changes an ArchState and leaves the rest to a *port*:
 * sim::Core's timing port (timed accesses, cycle costs, HPM counts,
 * flip watches; panics on what a vetted image cannot contain) or
 * validate::Sandbox's trapping port (overlay memory, typed traps,
 * call-depth limit, write digest, OSR-flip redirect). A Port has:
 *
 *   bool load(uint64_t addr, bool nonTemporal, uint64_t &value);
 *   bool store(uint64_t addr, bool nonTemporal, uint64_t value);
 *   bool evtTarget(uint32_t slot, CodeAddr &target); // CallIndirect
 *   bool unpatchedCall();          // CallDirect to kInvalidCodeAddr
 *   bool enterCall(size_t depth);  // before pushing frame depth + 1
 *   void hint();
 *   void branch();                 // Jmp, Bnz, both calls, Ret
 *   CodeAddr transfer(CodeAddr from, CodeAddr to, Transfer how);
 *   void halt();                   // Halt, or Ret on an empty stack
 *
 * A bool call returning false refuses the instruction: execute returns
 * false with the ArchState unchanged. load, store and evtTarget come
 * before any other port call of their instruction, so a fenced core
 * that parks there changes nothing. transfer returns where control
 * lands.
 */

#ifndef PROTEAN_ISA_SEMANTICS_H
#define PROTEAN_ISA_SEMANTICS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "isa/minst.h"

namespace protean {
namespace isa {

/** Registers a call's window saves: r4..r63. */
constexpr uint32_t kWindowRegs = kNumMachineRegs - kFirstGeneralReg;

/** One hardware call-stack frame. */
struct Frame
{
    CodeAddr ret;                             ///< Return address.
    std::array<uint64_t, kWindowRegs> saved; ///< Caller's r4..r63.
};

/** The architectural state PISA instructions read and write. */
struct ArchState
{
    CodeAddr pc = 0;
    std::array<uint64_t, kNumMachineRegs> regs{};
    std::vector<Frame> stack;
};

/** What kind of control transfer a port sees. */
enum class Transfer : uint8_t {
    Branch, ///< A taken Jmp or Bnz.
    Call,   ///< CallDirect or CallIndirect, after pushing a frame.
    Return, ///< Ret to the popped frame's return address.
};

/** Push a window and enter `target`. */
template <class Port>
[[gnu::always_inline]] inline bool
call(Port &port, ArchState &s, CodeAddr target)
{
    if (!port.enterCall(s.stack.size()))
        return false;
    Frame &f = s.stack.emplace_back();
    f.ret = s.pc + 1;
    std::copy(s.regs.begin() + kFirstGeneralReg, s.regs.end(),
              f.saved.begin());
    s.pc = port.transfer(s.pc, target, Transfer::Call);
    return true;
}

/**
 * Execute `inst`, the instruction at s.pc, through `port`.
 * @return false when the port refused it (nothing changed).
 */
template <class Port>
[[gnu::always_inline]] inline bool
execute(Port &port, ArchState &s, const MInst &inst)
{
    auto &r = s.regs;
    auto addr = [&] { return r[inst.rs1] + static_cast<uint64_t>(inst.imm); };
    switch (inst.op) {
      case MOp::Const: r[inst.rd] = static_cast<uint64_t>(inst.imm); break;
      case MOp::Mov: r[inst.rd] = r[inst.rs1]; break;
      case MOp::Add: r[inst.rd] = r[inst.rs1] + r[inst.rs2]; break;
      case MOp::Sub: r[inst.rd] = r[inst.rs1] - r[inst.rs2]; break;
      case MOp::Mul: r[inst.rd] = r[inst.rs1] * r[inst.rs2]; break;
      case MOp::Div:
        r[inst.rd] = r[inst.rs2] == 0 ? 0 : r[inst.rs1] / r[inst.rs2];
        break;
      case MOp::Mod:
        r[inst.rd] = r[inst.rs2] == 0 ? r[inst.rs1]
            : r[inst.rs1] % r[inst.rs2];
        break;
      case MOp::And: r[inst.rd] = r[inst.rs1] & r[inst.rs2]; break;
      case MOp::Or: r[inst.rd] = r[inst.rs1] | r[inst.rs2]; break;
      case MOp::Xor: r[inst.rd] = r[inst.rs1] ^ r[inst.rs2]; break;
      case MOp::Shl: r[inst.rd] = r[inst.rs1] << (r[inst.rs2] & 63); break;
      case MOp::Shr: r[inst.rd] = r[inst.rs1] >> (r[inst.rs2] & 63); break;
      case MOp::CmpEq: r[inst.rd] = r[inst.rs1] == r[inst.rs2]; break;
      case MOp::CmpNe: r[inst.rd] = r[inst.rs1] != r[inst.rs2]; break;
      case MOp::CmpLt: r[inst.rd] = r[inst.rs1] < r[inst.rs2]; break;
      case MOp::CmpLe: r[inst.rd] = r[inst.rs1] <= r[inst.rs2]; break;
      case MOp::Load: {
        uint64_t value = 0;
        if (!port.load(addr(), inst.nonTemporal, value))
            return false;
        r[inst.rd] = value;
        break;
      }
      case MOp::Store:
        if (!port.store(addr(), inst.nonTemporal, r[inst.rs2]))
            return false;
        break;
      case MOp::Hint:
        port.hint();
        break;
      case MOp::Jmp:
        port.branch();
        s.pc = port.transfer(s.pc, inst.target, Transfer::Branch);
        return true;
      case MOp::Bnz:
        port.branch();
        if (r[inst.rs1] != 0) {
            s.pc = port.transfer(s.pc, inst.target, Transfer::Branch);
            return true;
        }
        break;
      case MOp::CallDirect:
        port.branch();
        if (inst.target == kInvalidCodeAddr)
            return port.unpatchedCall();
        return call(port, s, inst.target);
      case MOp::CallIndirect: {
        CodeAddr target = kInvalidCodeAddr;
        if (!port.evtTarget(inst.evtSlot, target))
            return false;
        port.branch();
        return call(port, s, target);
      }
      case MOp::Ret: {
        port.branch();
        if (s.stack.empty()) {
            port.halt();
            return true;
        }
        const Frame &f = s.stack.back();
        std::copy(f.saved.begin(), f.saved.end(),
                  r.begin() + kFirstGeneralReg);
        const CodeAddr ret = f.ret;
        s.stack.pop_back();
        s.pc = port.transfer(s.pc, ret, Transfer::Return);
        return true;
      }
      case MOp::Halt:
        port.halt();
        return true;
      case MOp::Nop:
        break;
    }
    ++s.pc;
    return true;
}

} // namespace isa
} // namespace protean

#endif // PROTEAN_ISA_SEMANTICS_H
