package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.fmatrix.FactorizedMatrix
import repro.core.model.{FactorizedBackend, LinearModel, MultiLevelEM}
import repro.core.reptile._
import repro.synth.DatasetSynth

/** Figure 16 (Appendix K): model quality via AIC on FIST-like and
  * Vote-like data — linear vs multi-level, with and without the auxiliary
  * feature (rainfall / 2016 vote share). Lower AIC is better; a difference
  * above 10 is "substantially better" (Burnham & Anderson).
  */
object AicExp {

  final case class AicRow(dataset: String, model: String, aic: Double, delta: Double)

  private def modelsFor(
      spark: SparkSession,
      fact: org.apache.spark.sql.DataFrame,
      dims: Vector[(String, Vector[String])],
      measure: String,
      aux: AuxDataset,
      emIters: Int,
  ): Vector[(String, Double)] = {
    val Groups(hiers, allAttrs, observed) =
      Reptile.groups(fact, dims.map { case (d, attrs) => (Dimension(d, attrs), attrs.size) }, measure)
    val cfg = ReptileConfig(emIters = emIters)
    val ys = observed.view.mapValues(Reptile.yOf(StatKind.MeanStat, cfg))

    def aicFor(useAux: Boolean, multiLevel: Boolean): Double = {
      val fcols = Featurizer.build(ys, hiers, if (useAux) Seq(aux) else Nil, cfg.minParallel)
      val fm = new FactorizedMatrix(hiers, fcols)
      val bk = new FactorizedBackend(fm)
      val y = Reptile.buildY(fm, hiers, allAttrs, observed, StatKind.MeanStat, cfg)
      if (multiLevel) {
        // random intercept + (if present) random slope on the aux feature
        val re = fm.cols.zipWithIndex.collect {
          case (c, i) if c.label == "intercept" || c.label.startsWith("aux:") => i
        }.toArray
        MultiLevelEM.aic(bk, y, MultiLevelEM.fit(bk, y, emIters, cfg.ridge, Some(re)))
      } else LinearModel.aic(bk, y, LinearModel.fit(bk, y, cfg.ridge))
    }

    Vector(
      "Linear" -> aicFor(useAux = false, multiLevel = false),
      "Linear-f" -> aicFor(useAux = true, multiLevel = false),
      "Multi-level" -> aicFor(useAux = false, multiLevel = true),
      "Multi-level-f" -> aicFor(useAux = true, multiLevel = true),
    )
  }

  def run(spark: SparkSession, emIters: Int = 15): Vector[AicRow] = {
    val (fistFact, rainDf) = DatasetSynth.fistLike(spark)
    val fistModels = modelsFor(spark, fistFact,
      Vector("time" -> Vector("year"), "geo" -> Vector("region", "district", "village")),
      "severity", AuxDataset("rainfall", rainDf, "village", "rainfall"), emIters)

    val (voteFact, p16Df) = DatasetSynth.voteLike(spark)
    val voteModels = modelsFor(spark, voteFact,
      Vector("geo" -> Vector("state", "county")),
      "pct2020", AuxDataset("pct2016", p16Df, "county", "pct2016"), emIters)

    def rows(ds: String, ms: Vector[(String, Double)]): Vector[AicRow] = {
      val min = ms.map(_._2).min
      ms.map { case (name, aic) => AicRow(ds, name, aic, aic - min) }
    }
    rows("FIST", fistModels) ++ rows("Vote", voteModels)
  }

  def printRows(rows: Seq[AicRow]): Unit =
    Timing.printTable("Figure 16: model evaluation (AIC; delta vs best per dataset)",
      Seq("dataset", "model", "AIC", "deltaAIC"),
      rows.map(r => Seq(r.dataset, r.model, Timing.f1(r.aic), Timing.f1(r.delta))))
}
