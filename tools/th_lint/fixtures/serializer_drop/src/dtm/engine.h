// Fixture: DtmIntervalSample with a field the decoder forgets.
namespace th {

struct DtmIntervalSample
{
    double timeS = 0.0;
    double peakK = 0.0;
};

} // namespace th
