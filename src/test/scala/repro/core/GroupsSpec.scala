package repro.core

import org.apache.spark.ListenerBusDrain
import repro.SparkSpec
import repro.core.frep.HierRelation
import repro.core.reptile._
import repro.perfbench.SparkCounters

/** `Reptile.groups`: the one Spark aggregation of a drill-down, from which
  * the hierarchy relations and the main-effect features are derived on the
  * driver.
  */
class GroupsSpec extends SparkSpec {
  import spark.implicits._

  private val dims = Vector(
    Dimension("time", Vector("year")),
    Dimension("geo", Vector("district", "village")),
    Dimension("kind", Vector("kind")),
  )

  // A null year, village and kind: each decodes to the string "null".
  private lazy val fact = Seq[(String, String, String, String, Double)](
    ("1986", "ofla", "ofla-v1", "a", 1.0), ("1986", "ofla", "ofla-v2", "b", 2.0),
    ("1987", "ofla", "ofla-v1", null, 3.0), ("1987", "raya", "raya-v1", "a", 4.0),
    ("1987", "raya", null, "a", 5.0), (null, "raya", "raya-v1", "b", 6.0),
    ("1986", "raya", "raya-v1", "b", 7.0), ("1986", "raya", "raya-v1", "b", 9.0),
  ).toDF("year", "district", "village", "kind", "sev")

  test("hierarchies from Reptile.groups equal HierRelation.fromDataFrame, null values included") {
    val layouts = Vector(
      Vector((dims(0), 1), (dims(1), 2)),
      Vector((dims(2), 1), (dims(0), 1), (dims(1), 1)),
      Vector((dims(1), 2), (dims(2), 1)),
    )
    for (used <- layouts) {
      val g = Reptile.groups(fact, used, "sev")
      assert(g.attrs == used.flatMap { case (d, dep) => d.attrs.take(dep) })
      assert(g.hiers.size == used.size)
      g.hiers.zip(used).foreach { case (h, (d, dep)) =>
        val ref = HierRelation.fromDataFrame(fact, d.name, d.attrs.take(dep))
        assert(h.dim == ref.dim && h.attrs == ref.attrs)
        assert(h.rows == ref.rows, s"${d.name} at depth $dep")
      }
    }
    val geo = Reptile.groups(fact, Vector((dims(1), 2)), "sev").hiers.head
    assert(geo.rows.contains(Vector("raya", "null")))
  }

  test("driver-side features from Reptile.groups equal the DataFrame adapter's") {
    val used = Vector((dims(0), 1), (dims(1), 2))
    val g = Reptile.groups(fact, used, "sev")
    val statsDf = Reptile.drilldownStats(fact, g.attrs, "sev")
    for (kind <- Seq(StatKind.CountStat, StatKind.MeanStat)) {
      val driver = Featurizer.build(g.observed.view.mapValues(kind.of), g.hiers, Nil, 2.0)
      val adapter = Featurizer.build(statsDf, g.hiers, kind.col, Nil)
      assert(driver.map(_.label) == adapter.map(_.label))
      for ((a, b) <- driver.zip(adapter).tail; row <- g.hiers(a.hierIdx).rows) {
        val v = row(a.attrIdx)
        assert(a.f(v) == b.f(v), s"${a.label}($v)")
      }
    }
  }

  test("rankDim without auxiliary data starts only the group-statistics jobs") {
    val sc = spark.sparkContext
    val counters = new SparkCounters
    sc.addSparkListener(counters)
    def jobs(body: => Any): Long = {
      ListenerBusDrain(sc)
      val before = counters.snapshot.jobs
      body
      ListenerBusDrain(sc)
      counters.snapshot.jobs - before
    }
    try {
      val drilled = Map("time" -> 1, "geo" -> 1)
      val rank = jobs(Reptile.rankDim(spark, fact, dims, drilled,
        filters = Map("year" -> "1987", "district" -> "raya"),
        complaint = Complaint(AggType.Mean, Direction.TooHigh),
        measure = "sev", targetDim = "geo", cfg = ReptileConfig(emIters = 4)))
      val stats = jobs(Reptile.drilldownStats(fact, Seq("year", "district", "village"), "sev").collect())
      assert(stats > 0)
      assert(rank == stats)
    } finally sc.removeSparkListener(counters)
  }
}
