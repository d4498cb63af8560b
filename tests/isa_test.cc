/**
 * @file
 * Tests for the PISA instruction set and image format: mnemonics,
 * disassembly, control-flow classification, image lookup helpers,
 * and the initial-data word accessors.
 */

#include <gtest/gtest.h>

#include <set>

#include "ir/builder.h"
#include "isa/image.h"
#include "pcc/pcc.h"

namespace protean {
namespace isa {
namespace {

TEST(MInst, MnemonicsUnique)
{
    std::set<std::string> names;
    for (uint8_t k = 0; k < kNumMOps; ++k)
        names.insert(mopName(static_cast<MOp>(k)));
    EXPECT_EQ(names.size(), kNumMOps);
}

TEST(MInst, ControlFlowClassification)
{
    MInst inst;
    for (MOp op : {MOp::Jmp, MOp::Bnz, MOp::CallDirect,
                   MOp::CallIndirect, MOp::Ret, MOp::Halt}) {
        inst.op = op;
        EXPECT_TRUE(inst.isControlFlow()) << mopName(op);
    }
    for (MOp op : {MOp::Const, MOp::Add, MOp::Load, MOp::Store,
                   MOp::Hint, MOp::Nop}) {
        inst.op = op;
        EXPECT_FALSE(inst.isControlFlow()) << mopName(op);
    }
}

TEST(Disassemble, LoadShowsNtMarker)
{
    MInst inst;
    inst.op = MOp::Load;
    inst.rd = 5;
    inst.rs1 = 6;
    inst.imm = 64;
    EXPECT_EQ(disassemble(inst).find("!nt"), std::string::npos);
    inst.nonTemporal = true;
    EXPECT_NE(disassemble(inst).find("!nt"), std::string::npos);
}

TEST(Disassemble, OperandFormats)
{
    MInst c;
    c.op = MOp::Const;
    c.rd = 4;
    c.imm = -7;
    EXPECT_NE(disassemble(c).find("r4, -7"), std::string::npos);

    MInst s;
    s.op = MOp::Store;
    s.rs1 = 8;
    s.rs2 = 9;
    s.imm = 128;
    EXPECT_NE(disassemble(s).find("[r8+128], r9"),
              std::string::npos);

    MInst ci;
    ci.op = MOp::CallIndirect;
    ci.evtSlot = 3;
    EXPECT_NE(disassemble(ci).find("evt[3]"), std::string::npos);
}

/** Minimal two-function module for image tests. */
ir::Module
tinyModule()
{
    ir::Module m("tiny");
    m.addGlobal("g", 64);
    ir::IRBuilder b(m);
    b.startFunction("leaf", 0);
    b.ret();
    b.startFunction("main", 0);
    b.callVoid(0);
    b.ret();
    return m;
}

TEST(Image, FunctionAtResolvesRanges)
{
    ir::Module m = tinyModule();
    Image image = pcc::compilePlain(m);
    ASSERT_EQ(image.functions.size(), 2u);
    const FunctionInfo &leaf = image.function(0);
    const FunctionInfo &mn = image.function(1);
    EXPECT_EQ(image.functionAt(leaf.entry)->name, "leaf");
    EXPECT_EQ(image.functionAt(mn.entry)->name, "main");
    EXPECT_EQ(image.functionAt(mn.end - 1)->name, "main");
    EXPECT_EQ(image.functionAt(static_cast<CodeAddr>(
        image.code.size())), nullptr);
}

TEST(Image, EntryPointIsMain)
{
    ir::Module m = tinyModule();
    Image image = pcc::compilePlain(m);
    EXPECT_EQ(image.entryPoint(), image.function(1).entry);
}

TEST(Image, InitialWordRoundtrip)
{
    ir::Module m = tinyModule();
    Image image = pcc::compile(m);
    image.setInitialWord(8, 0x1122334455667788ULL);
    EXPECT_EQ(image.initialWord(8), 0x1122334455667788ULL);
    // Little-endian byte order.
    EXPECT_EQ(image.initialData[8], 0x88);
    EXPECT_EQ(image.initialData[15], 0x11);
}

TEST(Image, InitialWordBoundsDoNotWrap)
{
    ir::Module m = tinyModule();
    Image image = pcc::compile(m);
    // byte_addr + 8 wraps to 0 here; the word is 8 bytes before the
    // data segment, not in it.
    const uint64_t top = ~0ULL - 7;
    EXPECT_DEATH(image.initialWord(top), "out of range");
    EXPECT_DEATH(image.setInitialWord(top, 1), "out of range");
    const uint64_t size = image.initialData.size();
    EXPECT_DEATH(image.initialWord(size - 4), "out of range");
    // The last whole word is still in range.
    image.setInitialWord(size - 8, 42);
    EXPECT_EQ(image.initialWord(size - 8), 42u);
}

TEST(Image, DisassembleAllListsFunctions)
{
    ir::Module m = tinyModule();
    Image image = pcc::compilePlain(m);
    std::string text = image.disassembleAll();
    EXPECT_NE(text.find("leaf:"), std::string::npos);
    EXPECT_NE(text.find("main:"), std::string::npos);
    EXPECT_NE(text.find("ret"), std::string::npos);
    EXPECT_NE(text.find("call"), std::string::npos);
}

TEST(Image, ProteanFlag)
{
    ir::Module m1 = tinyModule();
    EXPECT_FALSE(pcc::compilePlain(m1).isProtean());
    ir::Module m2 = tinyModule();
    // main has a single block here, but embedding IR alone keeps
    // the header; virtualization needs a multi-block callee.
    pcc::PccOptions opts;
    opts.policy = pcc::EdgePolicy::AllCallees;
    EXPECT_TRUE(pcc::compile(m2, opts).isProtean());
}

TEST(DataLayout, BoundsChecked)
{
    DataLayout layout;
    layout.globalBase = {64, 128};
    EXPECT_EQ(layout.base(1), 128u);
    EXPECT_DEATH({ layout.base(2); }, "bad global");
}

} // namespace
} // namespace isa
} // namespace protean
