// Fixture: CoreConfig with a field its key list forgets.
namespace th {

struct CoreConfig
{
    int fetchWidth = 4;
    int robSize = 96;
};

// Lists fetchWidth but not robSize.
template <class Fn, class... Cfgs>
void
forEachConfigField(Fn &&fn, Cfgs &&...c)
{
    fn("fetchWidth", c.fetchWidth...);
}

} // namespace th
