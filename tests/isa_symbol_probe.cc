/**
 * @file
 * Deliberate ODR leak for the IsaSymbols.GuardCatchesALeak ctest: a
 * global-namespace function template instantiated inside a "tier"
 * namespace, the shape of the hazard check_isa_symbols.sh rejects
 * (a weak symbol one tier could hand to another).
 */

template <class T>
T
twice(T x)
{
    return x + x;
}

namespace tg {
namespace isa_probe {

double (*twiceHook)(double) = &twice<double>;

} // namespace isa_probe
} // namespace tg
