#!/bin/sh
# ODR guard of the per-ISA-tier kernel objects.
#
# Usage: check_isa_symbols.sh NM TIER OBJECT... 
#        check_isa_symbols.sh --expect NAME NM TIER OBJECT...
#
# Lists the global and weak symbols OBJECT defines (nm -C
# --defined-only) and fails if any lies outside the tier's own
# namespace: every such name must contain "tg::isa_TIER::", either as
# its scope or inside a template argument list (a library template
# instantiated on a tier-namespaced type is unique to the tier). A
# linker keeps one copy of every weak symbol, so a symbol shared
# between tiers could hand an AVX-512 body to a portable caller.
#
# With --expect NAME the check is inverted, to show the guard bites:
# it passes only when a violation containing NAME is reported.
expect=
if [ "$1" = "--expect" ]; then
    expect=$2
    shift 2
fi
nm=$1
tier=$2
shift 2

syms=$("$nm" -C --defined-only "$@") || {
    echo "check_isa_symbols: $nm failed on $*" >&2
    exit 2
}
# Field 2 is the symbol class: upper case is global, u is unique
# global, v/w/V/W are weak; other lower-case classes are local.
bad=$(printf '%s\n' "$syms" | awk -v ns="tg::isa_${tier}::" '
    NF >= 3 && $2 ~ /^([A-Z]|u|v|w)$/ {
        name = $0
        sub(/^[^ ]* [^ ]* /, "", name)
        if (index(name, ns) == 0)
            print $2 " " name
    }')

if [ -n "$expect" ]; then
    if printf '%s\n' "$bad" | grep -F -q -- "$expect"; then
        echo "guard reports the expected leak: $expect"
        exit 0
    fi
    echo "check_isa_symbols: expected a violation naming '$expect'" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi
if [ -n "$bad" ]; then
    echo "symbols of tier $tier outside tg::isa_${tier}::" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi
count=$(printf '%s\n' "$syms" | awk -v ns="tg::isa_${tier}::" \
    'NF >= 3 && $2 ~ /^([A-Z]|u|v|w)$/ && index($0, ns)' | wc -l)
echo "tier $tier: $count global/weak symbols, all in tg::isa_${tier}::"
