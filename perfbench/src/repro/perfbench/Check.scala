package repro.perfbench

import repro.core.reptile.DimRankResult

/** Ranking comparisons. Scores agree when within a relative 1e-6. A
  * different top candidate is accepted only when the reference scores it
  * level with its own top: parallel groups that are empty often tie.
  */
object Check {
  private val RelTol = 1e-6

  def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= RelTol * math.max(math.max(math.abs(a), math.abs(b)), 1e-9)

  private def scores(r: DimRankResult): Map[Map[String, String], Double] =
    r.candidates.map(c => c.values -> c.score).toMap

  /** Top candidate and its score agree with `ref`. */
  def sameTop(out: DimRankResult, ref: DimRankResult): Boolean =
    out.dim == ref.dim && close(out.best.score, ref.best.score) &&
      scores(ref).get(out.best.values).exists(close(_, ref.best.score))

  /** Every candidate, with its score, agrees with `ref`. */
  def sameRanking(out: DimRankResult, ref: DimRankResult): Boolean = {
    val (so, sr) = (scores(out), scores(ref))
    out.attr == ref.attr && so.keySet == sr.keySet && so.forall { case (k, s) => close(s, sr(k)) } &&
      sameTop(out, ref)
  }

  /** The results of one call agree hierarchy by hierarchy, and the
    * recommended hierarchy is one `ref` also puts first (up to a tie).
    */
  def sameCall(out: Vector[DimRankResult], ref: Vector[DimRankResult],
               same: (DimRankResult, DimRankResult) => Boolean): Boolean = {
    val byDim = ref.map(r => r.dim -> r).toMap
    out.size == ref.size && out.forall(o => byDim.get(o.dim).exists(same(o, _))) &&
      close(byDim(out.head.dim).best.score, ref.head.best.score)
  }
}
