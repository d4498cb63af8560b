#include "isa/image.h"

#include "support/logging.h"

namespace protean {
namespace isa {

uint64_t
DataLayout::base(ir::GlobalId g) const
{
    if (g >= globalBase.size())
        panic("DataLayout: bad global %u", g);
    return globalBase[g];
}

CodeAddr
Image::entryPoint() const
{
    return function(entryFunc).entry;
}

const FunctionInfo *
Image::functionAt(CodeAddr addr) const
{
    for (const auto &fi : functions) {
        if (addr >= fi.entry && addr < fi.end)
            return &fi;
    }
    return nullptr;
}

const FunctionInfo &
Image::function(ir::FuncId id) const
{
    if (id >= functions.size())
        panic("Image %s: bad function id %u", name.c_str(), id);
    return functions[id];
}

uint64_t
Image::initialWord(uint64_t byte_addr) const
{
    if (!hasInitialWord(byte_addr))
        panic("Image %s: initialWord at %llu out of range", name.c_str(),
              static_cast<unsigned long long>(byte_addr));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(initialData[byte_addr + i]) << (8 * i);
    return v;
}

void
Image::setInitialWord(uint64_t byte_addr, uint64_t value)
{
    if (!hasInitialWord(byte_addr))
        panic("Image %s: setInitialWord at %llu out of range",
              name.c_str(),
              static_cast<unsigned long long>(byte_addr));
    for (int i = 0; i < 8; ++i)
        initialData[byte_addr + i] =
            static_cast<uint8_t>(value >> (8 * i));
}

std::string
Image::disassembleAll() const
{
    std::string out = strformat("image %s (%zu insts)\n", name.c_str(),
                                code.size());
    for (const auto &fi : functions) {
        out += strformat("%s:\n", fi.name.c_str());
        for (CodeAddr a = fi.entry; a < fi.end; ++a)
            out += disassemble(code[a], a) + "\n";
    }
    return out;
}

} // namespace isa
} // namespace protean
