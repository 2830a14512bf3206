#!/usr/bin/env python3
"""Check the code of the simulator's FMA clones.

    python3 tools/check_fma_clones.py build/liblac.a

LAC_FMA_CLONES (src/sim/mac_pipeline.hpp) compiles a function twice on
x86-64: once for FMA hardware, once for the baseline ISA. The FMA clone is
fast only if std::fma became an instruction in it; a helper that did not
inline into it keeps a call to libm's fma there, which is correct but slow,
and a macro that expands to nothing leaves no clone at all. So for every
function whose name ends in `[clone .fma]` this checks, in
`objdump -dr -C` of the given library or object files, that

  - it holds at least one vfmadd instruction, and
  - it has no call relocation to libm's fma;

and it fails if an x86-64 input holds no such function. Inputs for other
architectures have no clones and pass.
"""
import re
import subprocess
import sys

FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
FMA_CALL = re.compile(
    r"\sR_X86_64_(PLT32|PC32|GOTPCRELX|REX_GOTPCRELX)\s+fma(@\S+)?([-+]0x[0-9a-f]+)?$")


def clones(dump: str):
    """Yields (name, body lines) for every `[clone .fma]` function."""
    name, body = None, []
    for line in dump.splitlines():
        m = FUNCTION.match(line)
        if m:
            if name is not None:
                yield name, body
            name, body = (m.group(1), []) if m.group(1).endswith("[clone .fma]") else (None, [])
        elif name is not None:
            body.append(line)
    if name is not None:
        yield name, body


def main(argv) -> int:
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    proc = subprocess.run(["objdump", "-dr", "-C", *argv[1:]], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.stderr.write("check_fma_clones: objdump failed\n")
        return 2
    x86_64 = "file format elf64-x86-64" in proc.stdout
    failures, seen = [], 0
    for name, body in clones(proc.stdout):
        seen += 1
        if not any("vfmadd" in line for line in body):
            failures.append("%s: no vfmadd instruction" % name)
        if any(FMA_CALL.search(line) for line in body):
            failures.append("%s: calls libm's fma" % name)
    if x86_64 and seen == 0:
        failures.append("no `[clone .fma]` function in an x86-64 input: "
                        "LAC_FMA_CLONES expanded to nothing")
    for f in failures:
        print("check_fma_clones: " + f)
    if not failures:
        print("check_fma_clones: %d FMA clone(s) checked%s" %
              (seen, "" if x86_64 else " (no x86-64 input)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
