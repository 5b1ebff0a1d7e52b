#include "rtl/verilog.h"

#include <sstream>

#include "util/logging.h"

namespace fleet {
namespace rtl {

namespace {

std::string
nodeRef(NodeId id)
{
    return std::string("n").append(std::to_string(id));
}

std::string
widthDecl(int width)
{
    if (width == 1)
        return "";
    return std::string("[").append(std::to_string(width - 1)) + ":0] ";
}

/** Render one combinational node as the RHS of an assign. */
std::string
nodeRhs(const Circuit &c, const Node &n)
{
    auto ref = [&](NodeId id) { return nodeRef(id); };
    auto signedRef = [&](NodeId id) { return "$signed(" + ref(id) + ")"; };
    std::ostringstream os;
    switch (n.kind) {
      case NodeKind::Const:
        os << n.width << "'d" << n.value;
        break;
      case NodeKind::Input:
        os << c.inputs()[n.index].name;
        break;
      case NodeKind::RegOut:
        os << "r_" << c.regs()[n.index].name;
        break;
      case NodeKind::BramRdData:
        os << "bram_rd_" << c.brams()[n.index].name;
        break;
      case NodeKind::Bin:
        switch (n.binOp) {
          case BinOp::Slt:
            os << "(" << signedRef(n.a) << " < " << signedRef(n.b) << ")";
            break;
          case BinOp::Sle:
            os << "(" << signedRef(n.a) << " <= " << signedRef(n.b) << ")";
            break;
          case BinOp::Sgt:
            os << "(" << signedRef(n.a) << " > " << signedRef(n.b) << ")";
            break;
          case BinOp::Sge:
            os << "(" << signedRef(n.a) << " >= " << signedRef(n.b) << ")";
            break;
          case BinOp::LAnd:
            os << "((" << ref(n.a) << " != 0) && (" << ref(n.b)
               << " != 0))";
            break;
          case BinOp::LOr:
            os << "((" << ref(n.a) << " != 0) || (" << ref(n.b)
               << " != 0))";
            break;
          default:
            os << "(" << ref(n.a) << " " << binOpName(n.binOp) << " "
               << ref(n.b) << ")";
            break;
        }
        break;
      case NodeKind::Un:
        switch (n.unOp) {
          case UnOp::Not:
            os << "(~" << ref(n.a) << ")";
            break;
          case UnOp::LNot:
            os << "(" << ref(n.a) << " == 0)";
            break;
          case UnOp::Neg:
            os << "(-" << ref(n.a) << ")";
            break;
        }
        break;
      case NodeKind::Mux:
        os << "((" << ref(n.c) << " != 0) ? " << ref(n.a) << " : "
           << ref(n.b) << ")";
        break;
      case NodeKind::Slice:
        if (n.width == 1)
            os << ref(n.a) << "[" << n.index << "]";
        else
            os << ref(n.a) << "[" << (n.index + n.width - 1) << ":"
               << n.index << "]";
        break;
      case NodeKind::Concat:
        os << "{" << ref(n.a) << ", " << ref(n.b) << "}";
        break;
    }
    return os.str();
}

} // namespace

std::string
emitVerilog(const Circuit &c)
{
    c.validate();
    std::ostringstream os;

    os << "// Generated by the Fleet compiler (fleet-sim reproduction).\n";
    os << "module " << c.name() << " (\n";
    os << "    input clock,\n    input reset";
    for (const auto &port : c.inputs())
        os << ",\n    input " << widthDecl(port.width) << port.name;
    for (const auto &out : c.outputs()) {
        os << ",\n    output " << widthDecl(c.width(out.node)) << out.name;
    }
    os << "\n);\n\n";

    // Register and BRAM state declarations.
    for (const auto &reg : c.regs()) {
        os << "    reg " << widthDecl(reg.width) << "r_" << reg.name
           << ";\n";
    }
    for (const auto &bram : c.brams()) {
        os << "    reg " << widthDecl(bram.width) << "mem_" << bram.name
           << " [0:" << (bram.elements - 1) << "];\n";
        os << "    reg " << widthDecl(bram.width) << "bram_rd_" << bram.name
           << ";\n";
    }
    os << "\n";

    // Combinational nodes in topological order.
    const auto &nodes = c.nodes();
    for (size_t i = 0; i < nodes.size(); ++i) {
        os << "    wire " << widthDecl(nodes[i].width) << nodeRef(i)
           << " = " << nodeRhs(c, nodes[i]) << ";\n";
    }
    os << "\n";

    // Output port bindings.
    for (const auto &out : c.outputs())
        os << "    assign " << out.name << " = " << nodeRef(out.node)
           << ";\n";
    os << "\n";

    // Sequential logic.
    os << "    always @(posedge clock) begin\n";
    os << "        if (reset) begin\n";
    for (const auto &reg : c.regs()) {
        os << "            r_" << reg.name << " <= " << reg.width << "'d"
           << reg.init << ";\n";
    }
    os << "        end else begin\n";
    for (const auto &reg : c.regs()) {
        if (reg.enable == kNoNode) {
            os << "            r_" << reg.name << " <= "
               << nodeRef(reg.next) << ";\n";
        } else {
            os << "            if (" << nodeRef(reg.enable) << ") r_"
               << reg.name << " <= " << nodeRef(reg.next) << ";\n";
        }
    }
    os << "        end\n";
    for (const auto &bram : c.brams()) {
        os << "        bram_rd_" << bram.name << " <= mem_" << bram.name
           << "[" << nodeRef(bram.rdAddr) << "];\n";
        os << "        if (" << nodeRef(bram.wrEn) << ") mem_" << bram.name
           << "[" << nodeRef(bram.wrAddr) << "] <= " << nodeRef(bram.wrData)
           << ";\n";
    }
    os << "    end\n\n";
    os << "endmodule\n";
    return os.str();
}

} // namespace rtl
} // namespace fleet
