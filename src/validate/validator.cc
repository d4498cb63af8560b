#include "validate/validator.h"

#include <algorithm>

#include "support/logging.h"
#include "support/random.h"

namespace protean {
namespace validate {

using isa::MInst;
using isa::MOp;

Mode
parseMode(const std::string &s)
{
    if (s == "off")
        return Mode::Off;
    if (s == "ir")
        return Mode::Ir;
    if (s == "diff")
        return Mode::Diff;
    if (s == "paranoid")
        return Mode::Paranoid;
    fatal("unknown validate mode '%s' (off|ir|diff|paranoid)",
          s.c_str());
}

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Off: return "off";
      case Mode::Ir: return "ir";
      case Mode::Diff: return "diff";
      case Mode::Paranoid: return "paranoid";
    }
    return "?";
}

bool
applyMiscompile(std::vector<MInst> &code,
                const faults::MiscompileSpec &spec)
{
    std::vector<size_t> sites;
    switch (spec.kind) {
      case faults::MiscompileKind::DroppedStore:
        for (size_t i = 0; i < code.size(); ++i) {
            if (code[i].op == MOp::Store)
                sites.push_back(i);
        }
        break;
      case faults::MiscompileKind::FlippedNtBit:
        for (size_t i = 0; i < code.size(); ++i) {
            if (code[i].op == MOp::Load)
                sites.push_back(i);
        }
        break;
      case faults::MiscompileKind::SwappedOperand:
        // Only sites where the swap changes meaning: a
        // non-commutative op (or a store's address/value pair)
        // reading two distinct registers.
        for (size_t i = 0; i < code.size(); ++i) {
            const MInst &m = code[i];
            switch (m.op) {
              case MOp::Sub:
              case MOp::Div:
              case MOp::Mod:
              case MOp::Shl:
              case MOp::Shr:
              case MOp::CmpLt:
              case MOp::CmpLe:
              case MOp::Store:
                if (m.rs1 != m.rs2)
                    sites.push_back(i);
                break;
              default:
                break;
            }
        }
        break;
    }
    if (sites.empty())
        return false;
    size_t site = sites[spec.siteSeed % sites.size()];
    switch (spec.kind) {
      case faults::MiscompileKind::DroppedStore:
        code[site] = MInst{}; // defaults to Nop
        break;
      case faults::MiscompileKind::FlippedNtBit:
        code[site].nonTemporal = !code[site].nonTemporal;
        break;
      case faults::MiscompileKind::SwappedOperand:
        std::swap(code[site].rs1, code[site].rs2);
        break;
    }
    return true;
}

Validator::Validator(const ir::Module &module,
                     const isa::Image &image,
                     const codegen::VirtualizationMap &slots,
                     const ValidateConfig &cfg)
    : module_(module), image_(image), slots_(slots), cfg_(cfg)
{
    if (cfg_.diffInputs == 0)
        fatal("Validator: diffInputs must be positive");
}

codegen::LoweredFunction
Validator::lowerVariant(ir::FuncId func, const BitVector &mask) const
{
    // Exactly the runtime compiler's lowering (compiler.cc
    // compileNow): same layout, same virtualization map, the mask as
    // given. The reference the checker trusts is "what a correct
    // backend produces", not what the shard handed back.
    codegen::LowerOptions opts;
    opts.layout = &image_.layout;
    opts.virtualized = slots_.empty() ? nullptr : &slots_;
    opts.ntMask = &mask;
    return codegen::lowerFunction(module_, module_.function(func),
                                  opts);
}

Tier1
Validator::structuralCheck(ir::FuncId func, const BitVector &mask,
                           const codegen::LoweredFunction &candidate,
                           std::string *reason,
                           uint64_t *insts_walked) const
{
    auto fail = [reason](std::string why) {
        if (reason)
            *reason = std::move(why);
        return Tier1::Refuted;
    };
    auto masked = [&mask](ir::LoadId id) {
        return id != ir::kInvalidId && id < mask.size() &&
            mask.test(id);
    };

    codegen::LoweredFunction reference =
        lowerVariant(func, BitVector(0));
    const std::vector<MInst> &orig = reference.code;
    const std::vector<MInst> &var = candidate.code;
    uint64_t total = orig.size() + var.size();
    if (insts_walked)
        *insts_walked = total;
    if (total > cfg_.irCheckMaxInsts) {
        if (reason)
            *reason = strformat(
                "walk budget: %llu insts > %llu",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(
                    cfg_.irCheckMaxInsts));
        return Tier1::Inconclusive;
    }

    // Lockstep pairing walk: every original instruction must pair
    // with the next non-Hint candidate instruction, field for field;
    // candidate Hints are legal only as the immediate prefix of a
    // masked NT load. The pairing doubles as the address map that
    // the branch-target pass below checks against.
    std::vector<isa::CodeAddr> addrMap(orig.size(),
                                       isa::kInvalidCodeAddr);
    size_t i = 0, j = 0;
    bool hint_pending = false;
    while (i < orig.size()) {
        if (j >= var.size())
            return fail(strformat("variant truncated @%zu", i));
        const MInst &v = var[j];
        if (v.op == MOp::Hint) {
            if (hint_pending)
                return fail(strformat("doubled hint @%zu", j));
            if (!v.nonTemporal)
                return fail(
                    strformat("hint without nt bit @%zu", j));
            if (!masked(v.loadId))
                return fail(
                    strformat("hint on unmasked load @%zu", j));
            if (j + 1 >= var.size() ||
                var[j + 1].op != MOp::Load ||
                var[j + 1].loadId != v.loadId ||
                var[j + 1].rs1 != v.rs1 || var[j + 1].imm != v.imm)
                return fail(strformat("stray hint @%zu", j));
            hint_pending = true;
            ++j;
            continue;
        }
        const MInst &o = orig[i];
        // Labels resolve to block starts, and a block starting with
        // a masked load starts at its prefetch hint — so the
        // address image of `i` is the hint when one is pending.
        addrMap[i] =
            static_cast<isa::CodeAddr>(hint_pending ? j - 1 : j);
        if (o.op != v.op)
            return fail(strformat("opcode %s->%s @%zu",
                                  isa::mopName(o.op),
                                  isa::mopName(v.op), i));
        if (o.rd != v.rd || o.rs1 != v.rs1 || o.rs2 != v.rs2 ||
            o.imm != v.imm || o.evtSlot != v.evtSlot ||
            o.loadId != v.loadId)
            return fail(strformat("operand mismatch @%zu (%s)", i,
                                  isa::mopName(o.op)));
        if (o.op == MOp::Load) {
            bool want_nt = masked(o.loadId);
            if (v.nonTemporal != want_nt)
                return fail(strformat("nt bit flipped @%zu", i));
            if (want_nt && !hint_pending)
                return fail(
                    strformat("masked load missing hint @%zu", i));
            hint_pending = false;
        } else {
            if (v.nonTemporal != o.nonTemporal)
                return fail(strformat("nt bit flipped @%zu", i));
        }
        ++i;
        ++j;
    }
    if (j < var.size())
        return fail(strformat("variant has %zu trailing insts",
                              var.size() - j));

    // Branch targets through the address map. Both streams are
    // unrelocated, so targets are function-local indices.
    for (size_t k = 0; k < orig.size(); ++k) {
        const MInst &o = orig[k];
        if (o.op != MOp::Jmp && o.op != MOp::Bnz)
            continue;
        const MInst &v = var[addrMap[k]];
        if (o.target >= orig.size() ||
            v.target != addrMap[o.target])
            return fail(strformat("branch target @%zu", k));
    }
    // Direct-call fixups: same callees at paired offsets. (The
    // unrelocated target field itself is kInvalidCodeAddr on both
    // sides and already compared above.)
    if (reference.directCallFixups.size() !=
        candidate.directCallFixups.size())
        return fail("direct-call fixup count");
    for (size_t k = 0; k < reference.directCallFixups.size(); ++k) {
        auto [ro, rc] = reference.directCallFixups[k];
        auto [vo, vc] = candidate.directCallFixups[k];
        if (rc != vc || ro >= orig.size() || vo != addrMap[ro])
            return fail(strformat("direct-call fixup @%u", ro));
    }

    if (reason)
        *reason = "ok";
    return Tier1::Equivalent;
}

isa::CodeAddr
Validator::append(std::vector<MInst> &code,
                  const codegen::LoweredFunction &fn) const
{
    auto entry = static_cast<isa::CodeAddr>(code.size());
    codegen::LoweredFunction placed = fn;
    codegen::relocate(placed, entry);
    code.insert(code.end(), placed.code.begin(), placed.code.end());
    for (auto [offset, callee] : placed.directCallFixups)
        code[entry + offset].target = image_.function(callee).entry;
    return entry;
}

std::array<uint64_t, 4>
Validator::diffArgs(ir::FuncId func, uint32_t index) const
{
    // Small seeded values: plausible counters/indices for the
    // generated workloads, and pure in (seed, func, input, arg) so
    // verdicts never depend on who asks or when.
    std::array<uint64_t, 4> args;
    for (uint32_t a = 0; a < args.size(); ++a) {
        args[a] = mix64(cfg_.seed ^ mix64(func * 8 + a) ^
                        mix64(index)) &
            0xff;
    }
    return args;
}

bool
Validator::differentialCheck(ir::FuncId func, const BitVector &mask,
                             const codegen::LoweredFunction
                                 &candidate,
                             uint64_t *steps,
                             std::string *reason) const
{
    // The execution reference is the *clean* variant under the same
    // mask — what a correct backend would have produced — placed in
    // an identical harness: the static image with the candidate
    // appended, EVT and data segment untouched, so calls out of the
    // variant dispatch to the original code on both sides.
    std::vector<MInst> ref_prog = image_.code;
    std::vector<MInst> cand_prog = image_.code;
    isa::CodeAddr ref_entry =
        append(ref_prog, lowerVariant(func, mask));
    isa::CodeAddr cand_entry = append(cand_prog, candidate);

    Sandbox box(image_);
    for (uint32_t k = 0; k < cfg_.diffInputs; ++k) {
        std::array<uint64_t, 4> args = diffArgs(func, k);
        SandboxResult a =
            box.run(ref_prog, ref_entry, args, cfg_.diffStepLimit);
        SandboxResult b =
            box.run(cand_prog, cand_entry, args, cfg_.diffStepLimit);
        if (steps)
            *steps += a.steps + b.steps;
        if (!a.equivalentTo(b)) {
            if (reason)
                *reason = strformat(
                    "input %u diverged: want [%s] got [%s]", k,
                    a.fingerprint().c_str(),
                    b.fingerprint().c_str());
            return false;
        }
    }
    if (reason)
        *reason = "ok";
    return true;
}

bool
Validator::osrCheck(ir::FuncId func, const BitVector &mask,
                    uint64_t *steps, std::string *reason) const
{
    codegen::LoweredFunction orig = lowerVariant(func, BitVector(0));
    codegen::LoweredFunction var = lowerVariant(func, mask);
    if (orig.osrSites.empty()) {
        if (reason)
            *reason = "no loops";
        return true;
    }

    // One composed program: the static image with the original and
    // the variant both appended, so a flipped run crosses from one
    // lowering into the other mid-loop — the same address geometry
    // the runtime's osrRedirect creates in the live process.
    std::vector<MInst> prog = image_.code;
    isa::CodeAddr orig_entry = append(prog, orig);
    isa::CodeAddr var_entry = append(prog, var);

    Sandbox box(image_);
    static const uint64_t kFlipAfter[] = {0, 1, 3};
    for (uint32_t k = 0; k < cfg_.diffInputs; ++k) {
        std::array<uint64_t, 4> args = diffArgs(func, k);
        SandboxResult ref = box.run(prog, orig_entry, args,
                                    cfg_.diffStepLimit);
        if (steps)
            *steps += ref.steps;
        for (size_t si = 0; si < orig.osrSites.size(); ++si) {
            const codegen::OsrSite &s = orig.osrSites[si];
            if (s.header >= var.blockStarts.size()) {
                if (reason)
                    *reason = strformat(
                        "variant lost block %u", s.header);
                return false;
            }
            OsrFlip flip;
            flip.pc = orig_entry + s.offset;
            flip.dest = var_entry + var.blockStarts[s.header];
            for (uint64_t after : kFlipAfter) {
                flip.afterExecutions = after;
                SandboxResult got =
                    box.run(prog, orig_entry, args,
                            cfg_.diffStepLimit, &flip);
                if (steps)
                    *steps += got.steps;
                if (!got.equivalentTo(ref)) {
                    if (reason)
                        *reason = strformat(
                            "input %u site %zu after %llu "
                            "diverged: want [%s] got [%s]",
                            k, si,
                            static_cast<unsigned long long>(after),
                            ref.fingerprint().c_str(),
                            got.fingerprint().c_str());
                    return false;
                }
            }
        }
    }
    if (reason)
        *reason = "ok";
    return true;
}

Verdict
Validator::validate(const runtime::CompileJob &job,
                    const faults::MiscompileSpec *inject) const
{
    Verdict v;
    if (cfg_.mode == Mode::Off) {
        v.pass = true;
        v.reason = "gate off";
        return v;
    }
    if (job.func == ir::kInvalidId ||
        job.func >= module_.numFunctions())
        fatal("Validator: job for unknown function %u", job.func);

    const BitVector &mask = job.ntMask;
    codegen::LoweredFunction candidate =
        lowerVariant(job.func, mask);
    if (inject)
        v.injectedApplied =
            applyMiscompile(candidate.code, *inject);

    std::string reason;
    uint64_t walked = 0;
    Tier1 t1 = structuralCheck(job.func, mask, candidate, &reason,
                               &walked);
    v.cycles = cfg_.baseCycles + cfg_.irCheckCyclesPerInst * walked;

    if (t1 == Tier1::Refuted) {
        // Conclusive in every mode: the restricted transform had no
        // license to deviate, and the one class tier 2 is blind to
        // (a flipped NT bit) is refuted exactly here.
        v.pass = false;
        v.tier = 1;
        v.reason = std::move(reason);
        return v;
    }

    bool run_tier2 = false;
    if (t1 == Tier1::Inconclusive) {
        if (cfg_.mode == Mode::Ir) {
            // No tier 2 available: unproven code does not install.
            v.pass = false;
            v.tier = 1;
            v.reason = std::move(reason);
            return v;
        }
        run_tier2 = true;
    }
    if (cfg_.mode == Mode::Paranoid)
        run_tier2 = true;

    if (!run_tier2) {
        v.pass = true;
        v.tier = 1;
        v.reason = "ok";
        return v;
    }

    uint64_t steps = 0;
    std::string diff_reason;
    bool ok = differentialCheck(job.func, mask, candidate, &steps,
                                &diff_reason);
    v.cycles += cfg_.diffCyclesPerStep * steps;
    v.escalated = true;
    v.tier = 2;
    v.pass = ok;
    v.reason = std::move(diff_reason);
    return v;
}

} // namespace validate
} // namespace protean
