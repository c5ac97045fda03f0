// Fixture: fully covered config — zero diagnostics expected.
namespace th {

struct CoreConfig
{
    int fetchWidth = 4;
    int robSize = 96;
    // th_lint: excluded(display label; not a simulation input)
    int decorativeTag = 0;
};

// Lists every non-excluded CoreConfig field.
template <class Fn, class... Cfgs>
void
forEachConfigField(Fn &&fn, Cfgs &&...c)
{
    fn("fetchWidth", c.fetchWidth...);
    fn("robSize", c.robSize...);
}

} // namespace th
