#include "mem/vecram.hh"

namespace canon
{

namespace
{

/** Validated before the storage is sized from it. */
std::size_t
checkedSlots(const std::string &name, int slots)
{
    panicIf(slots <= 0, "VecRam ", name, ": slots must be positive");
    return static_cast<std::size_t>(slots);
}

} // namespace

template <typename T>
VecRam<T>::VecRam(std::string name, int slots)
    : name_(std::move(name)), data_(checkedSlots(name_, slots))
{
}

template class VecRam<Elem>;
template class VecRam<Word>;

} // namespace canon
