package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.reptile._
import repro.synth.DatasetSynth

/** Figure 9: work sharing across the candidate drill-downs of one Reptile
  * invocation (Section 4.4), measured on the engine. A COMPAS-like session
  * drills time, time, time, then age, each time into the group the
  * ranking puts first. Each invocation is run two ways: Static ranks every
  * eligible hierarchy with its own `rankDim` (one Spark aggregation per
  * candidate drill-down); Shared is one `recommend`, whose candidates share
  * one grouping-sets aggregation.
  */
object DrilldownExp {

  final case class DrillRow(invocation: Int, drilled: String, hierarchies: Int,
                            staticMs: Double, sharedMs: Double, sameRanking: Boolean)

  def run(spark: SparkSession, rows: Int = 60843): Vector[DrillRow] = {
    val dims = EndToEndExp.compasSetup.dims
    val drillOrder = Vector("time", "time", "time", "age")
    val fact = DatasetSynth.compasLike(spark, rows, seed = 1).cache()
    fact.count()
    val complaint = Complaint(AggType.Count, Direction.TooHigh)
    var drilled = Map.empty[String, Int]
    var filters = Map.empty[String, String]
    val out = Vector.newBuilder[DrillRow]
    for (inv <- 0 to drillOrder.size) {
      val eligible = dims.filter(d => drilled.getOrElse(d.name, 0) < d.attrs.size)
      def runStatic = Timing.ms {
        eligible.map(d => Reptile.rankDim(spark, fact, dims, drilled, filters, complaint, "v", d.name))
          .sortBy(_.best.score)
      }
      def runShared = Timing.ms(Reptile.recommend(spark, fact, dims, drilled, filters, complaint, "v"))
      // Alternate which runs first, so neither always meets the warmer JVM.
      val ((static, staticMs), (shared, sharedMs)) =
        if (inv % 2 == 0) { val s = runStatic; (s, runShared) } else { val s = runShared; (runStatic, s) }
      out += DrillRow(inv + 1, dims.map(d => s"${d.name}@${drilled.getOrElse(d.name, 0)}").mkString(" "),
        eligible.size, staticMs, sharedMs, static == shared)
      if (inv < drillOrder.size) {
        val next = shared.find(_.dim == drillOrder(inv)).get
        filters += next.attr -> next.best.values(next.attr)
        drilled += next.dim -> (drilled.getOrElse(next.dim, 0) + 1)
      }
    }
    fact.unpersist()
    out.result()
  }

  def printRows(rows: Seq[DrillRow]): Unit = {
    Timing.printTable("Figure 9: candidate drill-downs of one invocation, Static vs Shared",
      Seq("invocation", "drilled", "hierarchies", "static_ms", "shared_ms", "speedup", "same_ranking"),
      rows.map(r => Seq(r.invocation.toString, r.drilled, r.hierarchies.toString, Timing.f1(r.staticMs),
        Timing.f1(r.sharedMs), Timing.f2(r.staticMs / r.sharedMs) + "x", r.sameRanking.toString)))
    val (st, sh) = (rows.map(_.staticMs).sum, rows.map(_.sharedMs).sum)
    println(f"Figure 9 totals: static $st%.1f ms  shared $sh%.1f ms  speedup ${st / sh}%.2fx (paper: >1.2x)")
  }
}
