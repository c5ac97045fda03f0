// Fixture: encode covers both fields, decode drops 'peakK'.
namespace th {

void encodeDtmReport(Encoder &enc, const DtmReport &rep)
{
    for (const DtmIntervalSample &s : rep.intervals) {
        enc.f64(s.timeS);
        enc.f64(s.peakK);
    }
}

bool decodeDtmReport(Decoder &dec, DtmReport &rep)
{
    for (DtmIntervalSample &s : rep.intervals)
        s.timeS = dec.f64();
    return true;
}

} // namespace th
